//! The operator CLI rejects bad scenario files with an error, not a panic
//! or a hang, rejects bad or unknown flags as usage errors before it runs
//! anything, fails cleanly when its stdout is closed, and serves the
//! closed loop the same from worker processes as from worker threads.

use mercurial::Scenario;
use std::fs::File;
use std::io::Read;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a rejected scenario may take to exit. Validation runs before
/// any simulation, so this only trips when a bad value slips through and
/// the pipeline spins or runs.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs the CLI with `args`, killing it at [`DEADLINE`]. Returns its exit
/// status (`None` if it was killed), stdout and stderr.
fn run_cli(case: &str, args: &[&str]) -> (Option<ExitStatus>, String, String) {
    let stem = format!("mercurial-cli-{}-{case}", std::process::id());
    let out_path = std::env::temp_dir().join(format!("{stem}.stdout"));
    let err_path = std::env::temp_dir().join(format!("{stem}.stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_mercurial-lab"))
        .args(args)
        .stdout(File::create(&out_path).expect("create stdout file"))
        .stderr(File::create(&err_path).expect("create stderr file"))
        .spawn()
        .expect("run the CLI");
    let status = wait_for(&mut child);
    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    std::fs::remove_file(&out_path).ok();
    std::fs::remove_file(&err_path).ok();
    (status, stdout, stderr)
}

/// Waits for `child` to exit, killing it at [`DEADLINE`] (`None`).
fn wait_for(child: &mut Child) -> Option<ExitStatus> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll the CLI") {
            return Some(status);
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `mercurial-lab pipeline --scenario` on the mutated demo scenario
/// and asserts it exits 1 within [`DEADLINE`], naming `field` on stderr
/// and not panicking. The child is killed at the deadline.
fn assert_rejected(case: &str, field: &str, mutate: impl Fn(&mut Scenario)) {
    let mut scenario = Scenario::demo(7);
    mutate(&mut scenario);
    assert_rejected_json(case, field, &scenario.to_json());
}

/// [`assert_rejected`] on a scenario file's text.
fn assert_rejected_json(case: &str, field: &str, json: &str) {
    let path =
        std::env::temp_dir().join(format!("mercurial-cli-{}-{case}.json", std::process::id()));
    std::fs::write(&path, json).expect("write scenario file");
    let path_arg = path.to_str().expect("temp paths are UTF-8");
    let (status, _, stderr) = run_cli(case, &["pipeline", "--scenario", path_arg]);
    std::fs::remove_file(&path).ok();
    let status = status.unwrap_or_else(|| panic!("{case}: no exit within {DEADLINE:?}"));
    assert_eq!(status.code(), Some(1), "{case}: stderr: {stderr}");
    assert!(stderr.contains(field), "{case}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: stderr: {stderr}");
}

#[test]
fn zero_machine_scenario_exits_nonzero_without_panicking() {
    assert_rejected("machines", "fleet.machines", |s| s.fleet.machines = 0);
}

#[test]
fn bad_scenario_fields_exit_nonzero_without_panicking() {
    type Mutation = fn(&mut Scenario);
    let cases: [(&str, &str, Mutation); 29] = [
        ("epoch", "sim.epoch_hours", |s| s.sim.epoch_hours = 0.0),
        ("online-zero", "online_interval_hours", |s| {
            s.online_interval_hours = 0.0
        }),
        ("online-negative", "online_interval_hours", |s| {
            s.online_interval_hours = -73.0
        }),
        ("offline-zero", "offline_interval_hours", |s| {
            s.offline_interval_hours = 0.0
        }),
        ("offline-negative", "offline_interval_hours", |s| {
            s.offline_interval_hours = -365.0
        }),
        ("serve-workers-zero", "serve.workers", |s| {
            s.serve.workers = 0
        }),
        ("sockets", "fleet.sockets_per_machine", |s| {
            s.fleet.sockets_per_machine = 0
        }),
        ("no-products", "fleet.products", |s| {
            s.fleet.products.clear()
        }),
        ("weightless-products", "fleet.products", |s| {
            for p in &mut s.fleet.products {
                p.fleet_weight = 0.0;
            }
        }),
        ("zero-cores", "fleet.products[0].cores_per_socket", |s| {
            s.fleet.products[0].cores_per_socket = 0
        }),
        ("empty-dvfs", "fleet.products[1].dvfs.steps", |s| {
            s.fleet.products[1].dvfs = serde_json::from_str(r#"{"steps": []}"#).unwrap()
        }),
        (
            "rate-above-one",
            "fleet.products[2].mercurial_rate_per_core",
            |s| s.fleet.products[2].mercurial_rate_per_core = 2.0,
        ),
        (
            "rate-negative",
            "fleet.products[0].mercurial_rate_per_core",
            |s| s.fleet.products[0].mercurial_rate_per_core = -1e-6,
        ),
        ("noise-crash-huge", "sim.noise_crash_rate", |s| {
            s.sim.noise_crash_rate = 1e300
        }),
        ("noise-crash-negative", "sim.noise_crash_rate", |s| {
            s.sim.noise_crash_rate = -1e-5
        }),
        ("noise-report-above-one", "sim.noise_report_rate", |s| {
            s.sim.noise_report_rate = 2.0
        }),
        ("machine-check-above-one", "sim.machine_check_share", |s| {
            s.sim.machine_check_share = 1.5
        }),
        ("machine-check-negative", "sim.machine_check_share", |s| {
            s.sim.machine_check_share = -0.1
        }),
        (
            "closed-loop-triage-negative",
            "closed_loop.triage_latency_hours",
            |s| s.closed_loop.triage_latency_hours = -1.0,
        ),
        (
            "closed-loop-restore-negative",
            "closed_loop.restore_latency_hours",
            |s| s.closed_loop.restore_latency_hours = -24.0,
        ),
        (
            "tuning-triage-negative",
            "tuning.triage_latency_hours",
            |s| s.tuning.triage_latency_hours = -72.0,
        ),
        (
            "tuning-restore-negative",
            "tuning.restore_latency_hours",
            |s| s.tuning.restore_latency_hours = -0.5,
        ),
        (
            "tuning-drain-negative",
            "tuning.offline_drain_hours_per_machine",
            |s| s.tuning.offline_drain_hours_per_machine = -0.5,
        ),
        (
            "product-weight-negative",
            "fleet.products[1].fleet_weight",
            |s| s.fleet.products[1].fleet_weight = -0.2,
        ),
        ("online-ops-negative", "tuning.online_ops_fraction", |s| {
            s.tuning.online_ops_fraction = -1.0
        }),
        ("offline-fraction-above-one", "offline_fraction", |s| {
            s.offline_fraction = 1.5
        }),
        ("threshold-above-one", "suspicion_threshold", |s| {
            s.suspicion_threshold = 2.0
        }),
        ("amplitude-above-one", "workloads.traffic_amplitude", |s| {
            s.workloads.traffic_amplitude = 1.5
        }),
        ("zero-months", "sim.months", |s| s.sim.months = 0),
    ];
    for (case, field, mutate) in cases {
        assert_rejected(case, field, mutate);
    }
    // An infinite latency spelled as the JSON number `1e999`: it parses
    // to infinity, which used to panic deep in the loop's event queue.
    let mut scenario = Scenario::demo(7);
    scenario.closed_loop.triage_latency_hours = 12_345.5;
    let json = scenario.to_json().replace("12345.5", "1e999");
    assert!(json.contains("\"triage_latency_hours\": 1e999"));
    assert_rejected_json(
        "closed-loop-triage-1e999",
        "closed_loop.triage_latency_hours",
        &json,
    );
    let mut scenario = Scenario::demo(7);
    scenario.tuning.online_ops_fraction = 0.012_345;
    let json = scenario.to_json().replace("0.012345", "1e999");
    assert!(json.contains("\"online_ops_fraction\": 1e999"));
    assert_rejected_json("online-ops-1e999", "tuning.online_ops_fraction", &json);
    // A misspelt key is an error naming it, not a run on the default.
    let json =
        Scenario::demo(7)
            .to_json()
            .replacen("\"fleet\": {", "\"fleet\": {\"machiness\": 0,", 1);
    assert!(json.contains("\"machiness\": 0"));
    assert_rejected_json("fleet-typo", "machiness", &json);
}

#[test]
fn watch_and_audit_replays_reject_a_malformed_trace_alike() {
    let path = std::env::temp_dir().join(format!(
        "mercurial-cli-{}-malformed-trace.jsonl",
        std::process::id()
    ));
    let trace = "{\"h\":73,\"k\":\"G\",\"n\":\"epoch.corrupt_ops\",\"v\":0}\n\
                 {\"metric\":\"summary\",\"n\":\"x\",\"v\":1}\n";
    std::fs::write(&path, trace).expect("write trace file");
    let path_arg = path.to_str().expect("temp paths are UTF-8");
    let mut messages = Vec::new();
    for command in ["watch", "audit"] {
        let (status, _, stderr) = run_cli(command, &[command, "--trace", path_arg]);
        let status = status.unwrap_or_else(|| panic!("{command}: no exit within {DEADLINE:?}"));
        assert_eq!(status.code(), Some(1), "{command}: stderr: {stderr}");
        let message = stderr
            .lines()
            .find(|l| l.contains("line 2: unknown metric kind `summary`"))
            .unwrap_or_else(|| panic!("{command}: stderr: {stderr}"))
            .to_string();
        messages.push(message);
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(messages[0], messages[1]);
}

/// Runs the CLI with `args` and asserts it exits 2 within [`DEADLINE`],
/// naming `flag` on stderr and not panicking. Returns stderr.
fn assert_usage_error(case: &str, args: &[&str], flag: &str) -> String {
    let (status, _, stderr) = run_cli(case, args);
    let status = status.unwrap_or_else(|| panic!("{case}: no exit within {DEADLINE:?}"));
    assert_eq!(status.code(), Some(2), "{case}: stderr: {stderr}");
    assert!(stderr.contains(flag), "{case}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: stderr: {stderr}");
    stderr
}

/// Malformed or missing flag values, and flags or stray tokens the
/// command does not take.
#[test]
fn malformed_or_missing_flag_values_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 14] = [
        ("seed-abc", &["pipeline", "--seed", "abc"], "--seed"),
        ("seed-missing", &["pipeline", "--seed"], "--seed"),
        ("workers-x", &["serve", "--workers", "x"], "--workers"),
        (
            "age-zz",
            &["screen", "self-inverting-aes", "--age", "zz"],
            "--age",
        ),
        (
            "age-nan",
            &["screen", "self-inverting-aes", "--age", "nan"],
            "--age",
        ),
        (
            "age-inf",
            &["screen", "self-inverting-aes", "--age", "inf"],
            "--age",
        ),
        (
            "age-negative",
            &["screen", "self-inverting-aes", "--age", "-5"],
            "--age",
        ),
        ("pipeline-sede", &["pipeline", "--sede", "7"], "--sede"),
        ("trace-fromat", &["trace", "--fromat", "jsonl"], "--fromat"),
        ("archetypes-extra", &["archetypes", "extra"], "`extra`"),
        ("scenario-bogus", &["scenario", "bogus"], "`bogus`"),
        ("dump-rules-yes", &["watch", "--dump-rules", "yes"], "`yes`"),
        ("paper-7", &["pipeline", "--paper", "7"], "`7`"),
        ("procs-3", &["serve", "--procs", "3"], "`3`"),
    ];
    for (case, args, flag) in cases {
        // Commands that build a fleet announce "…: N machines, M months"
        // first; no banner means nothing ran.
        let stderr = assert_usage_error(case, args, flag);
        assert!(!stderr.contains("machines"), "{case}: stderr: {stderr}");
    }
}

#[test]
fn unknown_format_is_rejected_before_anything_runs() {
    // Each of these commands prints a "… closed loop: N machines" banner
    // before it builds an experiment; no banner means nothing ran.
    for command in ["trace", "audit", "prof"] {
        let stderr = assert_usage_error(command, &[command, "--format", "nope"], "--format");
        assert!(
            !stderr.contains("closed loop"),
            "{command}: stderr: {stderr}"
        );
    }
}

#[test]
fn closed_stdout_is_an_error_not_a_panic() {
    // The demo trace is ~120 KB of JSONL, more than a pipe buffers, so the
    // CLI is still writing when the reader goes away.
    let err_path = std::env::temp_dir().join(format!(
        "mercurial-cli-{}-closed-pipe.stderr",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_mercurial-lab"))
        .args(["trace", "--format", "jsonl"])
        .stdout(Stdio::piped())
        .stderr(File::create(&err_path).expect("create stderr file"))
        .spawn()
        .expect("run the CLI");
    let mut head = [0u8; 100];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("read the first bytes");
    drop(stdout);
    let status = wait_for(&mut child);
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    std::fs::remove_file(&err_path).ok();
    let status = status.unwrap_or_else(|| panic!("no exit within {DEADLINE:?}"));
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn served_demo_prints_the_same_from_processes_as_from_threads() {
    // `--procs` is the one path where the binary evidence codec crosses a
    // process boundary; the thread mode is the reference.
    let (threads, threads_out, threads_err) =
        run_cli("serve-threads", &["serve", "--workers", "2"]);
    let (procs, procs_out, procs_err) =
        run_cli("serve-procs", &["serve", "--workers", "2", "--procs"]);
    let threads = threads.unwrap_or_else(|| panic!("threads: no exit within {DEADLINE:?}"));
    let procs = procs.unwrap_or_else(|| panic!("procs: no exit within {DEADLINE:?}"));
    assert!(
        threads_out.contains("link: 360 evidence frames"),
        "threads: stdout: {threads_out}\nstderr: {threads_err}"
    );
    assert_eq!(procs_out, threads_out, "procs stderr: {procs_err}");
    assert_eq!(procs.code(), threads.code(), "procs stderr: {procs_err}");
    assert!(!procs_err.contains("worker process exited"), "{procs_err}");
}

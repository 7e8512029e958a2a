//! The operator CLI rejects bad scenario files with an error, not a panic
//! or a hang.

use mercurial::Scenario;
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a rejected scenario may take to exit. Validation runs before
/// any simulation, so this only trips when a bad value slips through and
/// the pipeline spins or runs.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `mercurial-lab pipeline --scenario` on the mutated demo scenario
/// and asserts it exits 1 within [`DEADLINE`], naming `field` on stderr
/// and not panicking. The child is killed at the deadline.
fn assert_rejected(case: &str, field: &str, mutate: impl Fn(&mut Scenario)) {
    let mut scenario = Scenario::demo(7);
    mutate(&mut scenario);
    let stem = format!("mercurial-cli-{}-{case}", std::process::id());
    let path = std::env::temp_dir().join(format!("{stem}.json"));
    let err_path = std::env::temp_dir().join(format!("{stem}.stderr"));
    std::fs::write(&path, scenario.to_json()).expect("write scenario file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mercurial-lab"))
        .arg("pipeline")
        .arg("--scenario")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(File::create(&err_path).expect("create stderr file"))
        .spawn()
        .expect("run the CLI");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the CLI") {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&err_path).ok();
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
    let cases: [(&str, &str, Mutation); 17] = [
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
    ];
    for (case, field, mutate) in cases {
        assert_rejected(case, field, mutate);
    }
}

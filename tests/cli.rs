//! The operator CLI rejects bad scenario files with an error, not a panic.

use mercurial::Scenario;
use std::process::Command;

#[test]
fn zero_machine_scenario_exits_nonzero_without_panicking() {
    let mut scenario = Scenario::demo(7);
    scenario.fleet.machines = 0;
    let path = std::env::temp_dir().join(format!("mercurial-cli-{}.json", std::process::id()));
    std::fs::write(&path, scenario.to_json()).expect("write scenario file");
    let out = Command::new(env!("CARGO_BIN_EXE_mercurial-lab"))
        .arg("pipeline")
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("run the CLI");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("fleet.machines"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

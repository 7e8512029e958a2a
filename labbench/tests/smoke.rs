//! Demo-scale smoke of the benchmark: every workload end to end and
//! traced, the hand-driven loop pinned to `ClosedLoopDriver`, and the
//! span tree well formed.

use std::process::Command;

use labbench::workloads::{self, Scale, Workload, DEFAULT_SEED};
use labbench::{MetricDef, END_TO_END, LAYER_EXTRA, PER_LAYER};

fn run_bench(w: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_labbench"))
        .args(["--workload", w.name(), "--scale", "demo", "--seconds", "0"])
        .args(["--seed", "11", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        w.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let stdout = run_bench(w, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\":true,\"attempted\":"), "{last}");
            assert!(last.contains("\"failed\":0,"), "{last}");
            // Harnesses keep only the tail of a run's output.
            assert!(last.len() < 1500, "result line is {} long", last.len());
            assert!(stdout.contains("failed_frac = 0 ratio"), "{stdout}");
            let (metrics, lines): (&[MetricDef], &[MetricDef]) = if trace {
                (&PER_LAYER, &LAYER_EXTRA)
            } else {
                (&END_TO_END, &[])
            };
            for (name, unit) in metrics {
                let key = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{name} missing: {last}"));
                let (value, rest) = last[at + key.len()..]
                    .split_once(',')
                    .expect("a value, then the unit");
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite)
                        && value.contains(['.', 'e']),
                    "{name}: {value} is not a float literal"
                );
                assert!(
                    rest.starts_with(&format!("\"unit\":\"{unit}\"}}")),
                    "{name} lacks unit {unit}"
                );
            }
            for (name, unit) in metrics.iter().chain(lines) {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} = ")) && l.contains(unit)),
                    "{name} has no human line"
                );
            }
        }
    }
}

#[test]
fn hand_driven_loop_matches_the_driver() {
    for w in [Workload::Study1m, Workload::PaperAudit] {
        let scenarios = workloads::scenarios(w, DEFAULT_SEED, Scale::Demo).expect("scenario");
        let driver = workloads::driver_digest(&scenarios[0]);
        let traced = workloads::run_traced(w, &scenarios, 1).expect("traced rep");
        assert_eq!(traced.check, Ok(()));
        assert_eq!(
            traced.digest,
            driver,
            "{}: hand-driven loop diverged",
            w.name()
        );
        let untraced = workloads::run_untraced(w, &scenarios).expect("untraced rep");
        assert_eq!(
            untraced.digest,
            driver,
            "{}: untraced rep diverged",
            w.name()
        );
    }
}

#[test]
fn spans_are_balanced_and_named_layers_cover_the_run() {
    for w in Workload::ALL {
        let scenarios = workloads::scenarios(w, DEFAULT_SEED, Scale::Demo).expect("scenario");
        let traced = workloads::run_traced(w, &scenarios, 3).expect("traced rep");
        traced.spans.check_balanced().expect("balanced spans");
        let spans = traced.spans.spans();
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(spans.iter().any(|s| s.name == "run" && s.parent.is_none()));
        for s in spans {
            if let Some(p) = s.parent {
                assert!(p < spans.len(), "span {} has no parent", s.name);
            }
        }
        if w != Workload::Served200k {
            let named = traced.layers["traced.named_frac"];
            assert!(named >= 0.9, "{}: named layers cover {named}", w.name());
        }
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
    }
}

//! E20 legacy pin: with the scenario `workloads` block absent (its
//! default), the workload-layer refactor must not move a single bit of
//! any pre-existing output. The digests below were captured on the
//! pre-refactor tree (PR 7 head) and the refactored code must keep
//! reproducing them exactly — open loop and closed loop, at two seeds.
//! The seed-23 closed loop was first pinned on the dense engine and the
//! others on the retired sparse one; both engines produced these digests,
//! and the single remaining engine must too. The open loop with workloads
//! and audit on was pinned before it moved onto the closed loop's shared
//! epoch boundary.

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
use mercurial::mitigation::MitigationPolicy;
use mercurial::scenario::ClassPolicy;
use mercurial::trace::export::to_prometheus;
use mercurial::{FleetExperiment, Scenario};
use mercurial_prof::Prof;

/// FNV-1a over a byte string: stable, dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario(seed: u64, feedback: bool) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

struct Digest {
    corruptions: u64,
    signals: usize,
    detections: usize,
    series_csv: u64,
    trace_jsonl: u64,
    watch_render: u64,
}

fn digest(seed: u64, feedback: bool) -> Digest {
    digest_of(&scenario(seed, feedback))
}

fn digest_of(scenario: &Scenario) -> Digest {
    let out = ClosedLoopDriver::execute(scenario);
    Digest {
        corruptions: out.pipeline.sim_summary.corruptions,
        signals: out.pipeline.signals.all().len(),
        detections: out.pipeline.detections.len(),
        series_csv: fnv1a(out.series.to_csv().as_bytes()),
        trace_jsonl: fnv1a(out.trace.to_jsonl().as_bytes()),
        watch_render: fnv1a(
            out.watch
                .as_ref()
                .expect("watch enabled")
                .render()
                .as_bytes(),
        ),
    }
}

fn check(name: &str, got: &Digest, want: &Digest) {
    assert_eq!(got.corruptions, want.corruptions, "{name}: corruptions");
    assert_eq!(got.signals, want.signals, "{name}: signal count");
    assert_eq!(got.detections, want.detections, "{name}: detections");
    assert_eq!(got.series_csv, want.series_csv, "{name}: series CSV bytes");
    assert_eq!(
        got.trace_jsonl, want.trace_jsonl,
        "{name}: trace JSONL bytes"
    );
    assert_eq!(got.watch_render, want.watch_render, "{name}: watch render");
}

#[test]
fn legacy_closed_loop_is_bit_identical_to_pre_refactor() {
    let got = digest(7, true);
    let want = Digest {
        corruptions: 68_632_069,
        signals: 381,
        detections: 17,
        series_csv: 0x9d12_71ac_ddd0_635f,
        trace_jsonl: 0xd7f3_ef09_599a_6f15,
        watch_render: 0x8c7d_8a27_4984_3066,
    };
    eprintln!(
        "closed: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("closed", &got, &want);
    // Scenario JSON written while runs still had a thread-count knob
    // carries `sim.parallelism`, JSON written while there were two fleet
    // engines carries `sim.engine`, and JSON written while traces could
    // hold a span per screened machine carries `trace.machine_spans`;
    // each must parse and replay the same pin.
    let json = scenario(7, true).to_json();
    for (block, key) in [
        ("sim", "\"parallelism\": 8"),
        ("sim", "\"engine\": \"Dense\""),
        ("sim", "\"engine\": \"Sparse\""),
        ("trace", "\"machine_spans\": true"),
    ] {
        let legacy_json = json.replacen(
            &format!("\"{block}\": {{"),
            &format!("\"{block}\": {{{key},"),
            1,
        );
        assert!(legacy_json.contains(key), "legacy key {key} injected");
        let legacy = Scenario::from_json(&legacy_json)
            .unwrap_or_else(|e| panic!("legacy key {key} must parse: {e}"));
        check(&format!("closed, legacy {key}"), &digest_of(&legacy), &want);
    }
}

#[test]
fn legacy_open_loop_is_bit_identical_to_pre_refactor() {
    let got = digest(7, false);
    let want = Digest {
        corruptions: 458_834_565,
        signals: 30_430,
        detections: 18,
        series_csv: 0xfc1a_1b5a_5f10_5c10,
        trace_jsonl: 0xbab9_4b5d_c7cd_565f,
        watch_render: 0x12bd_a6f4_5a1e_e9d2,
    };
    eprintln!(
        "open: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("open", &got, &want);
}

#[test]
fn legacy_seed_23_closed_loop_is_bit_identical_to_pre_refactor() {
    let got = digest(23, true);
    let want = Digest {
        corruptions: 9_592,
        signals: 274,
        detections: 5,
        series_csv: 0xfd0f_f437_64a6_f8e5,
        trace_jsonl: 0x39ea_604b_8a1c_6b68,
        watch_render: 0x63bd_1bdd_32a9_9ac1,
    };
    eprintln!(
        "closed seed 23: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("closed seed 23", &got, &want);
}

#[test]
fn open_loop_with_workloads_and_audit_is_bit_identical() {
    // The open loop's per-class gauges and its audited batch back half:
    // the workload block of `e20_workloads.rs` (feedback off, so no
    // adaptation) with the decision-audit layer on.
    let mut s = scenario(7, false);
    s.workloads.enabled = true;
    s.workloads.policies = vec![ClassPolicy {
        class: "database".to_string(),
        policy: MitigationPolicy::E2eChecksum,
    }];
    s.workloads.adapt = false;
    s.audit.enabled = true;
    let got = digest_of(&s);
    let want = Digest {
        corruptions: 482_071_100,
        signals: 30_371,
        detections: 18,
        series_csv: 0x1b38_3d27_3f45_c552,
        trace_jsonl: 0xaf3c_3e5c_2d6e_fdc9,
        watch_render: 0xaa56_afe4_7b5f_ac32,
    };
    eprintln!(
        "open workloads+audit: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("open workloads+audit", &got, &want);
}

#[test]
fn closed_loop_with_workloads_metrics_are_bit_identical() {
    // The per-class `class.*_total` counters of an adapting closed loop,
    // pinned through the Prometheus rendering of the final metric set and
    // the trace JSONL, with the audit layer off and on.
    let pins = [
        (false, 0xb1c5_094b_523a_e510u64, 0xe312_acb5_2854_9eacu64),
        (true, 0x16e9_efc0_9462_3deb, 0xec24_5e97_8ba4_0606),
    ];
    for (audit, prometheus, trace_jsonl) in pins {
        let mut s = scenario(7, true);
        s.workloads.enabled = true;
        s.workloads.policies = vec![ClassPolicy {
            class: "database".to_string(),
            policy: MitigationPolicy::E2eChecksum,
        }];
        s.workloads.adapt = true;
        s.workloads.escalate_threshold = 1_000;
        s.audit.enabled = audit;
        let out = ClosedLoopDriver::execute(&s);
        let prom = to_prometheus(&out.trace);
        assert!(
            prom.contains("corrupt_ops_total counter"),
            "class counters present"
        );
        let got = (
            fnv1a(prom.as_bytes()),
            fnv1a(out.trace.to_jsonl().as_bytes()),
        );
        eprintln!(
            "closed workloads, audit {audit}: prometheus=0x{:016x} trace_jsonl=0x{:016x}",
            got.0, got.1
        );
        assert_eq!(got, (prometheus, trace_jsonl), "audit {audit}");
    }
}

#[test]
fn every_observability_layer_combination_is_write_only() {
    // Tracing, watch, audit and the profiler observe the loop and never
    // steer it: all 16 on/off combinations reproduce the seed-7 pins,
    // closed and open loop.
    let pins = [
        (true, 68_632_069, 381, 17, 0x9d12_71ac_ddd0_635f),
        (false, 458_834_565, 30_430, 18, 0xfc1a_1b5a_5f10_5c10),
    ];
    for (feedback, corruptions, signals, detections, series_csv) in pins {
        let base = scenario(7, feedback);
        let experiment = FleetExperiment::build(&base);
        for layers in 0..16u8 {
            let [trace, watch, audit, profiled] = [1, 2, 4, 8].map(|bit| layers & bit != 0);
            let mut s = base.clone();
            s.trace.enabled = trace;
            s.watch.enabled = watch;
            s.audit.enabled = audit;
            let prof = if profiled {
                Prof::enabled()
            } else {
                Prof::disabled()
            };
            let opts = RunOptions {
                prof: Some(&prof),
                ..RunOptions::default()
            };
            let out = ClosedLoopDriver::execute_with(&s, &experiment, opts);
            let name = format!(
                "feedback {feedback}, trace {trace}, watch {watch}, audit {audit}, prof {profiled}"
            );
            let p = &out.pipeline;
            assert_eq!(
                p.sim_summary.corruptions, corruptions,
                "{name}: corruptions"
            );
            assert_eq!(p.signals.all().len(), signals, "{name}: signal count");
            assert_eq!(p.detections.len(), detections, "{name}: detections");
            let csv = fnv1a(out.series.to_csv().as_bytes());
            assert_eq!(csv, series_csv, "{name}: series CSV bytes");
        }
    }
}

//! E20 legacy pin: with the scenario `workloads` block absent (its
//! default), the workload-layer refactor must not move a single bit of
//! any pre-existing output. The digests below were captured on the
//! pre-refactor tree (PR 7 head) and the refactored code must keep
//! reproducing them exactly — open loop, closed loop, traced and
//! untraced, dense and sparse.

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::SimEngine;
use mercurial::Scenario;

/// FNV-1a over a byte string: stable, dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario(seed: u64, feedback: bool, engine: SimEngine) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.sim.engine = engine;
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

fn digest(seed: u64, feedback: bool, engine: SimEngine) -> Digest {
    digest_of(&scenario(seed, feedback, engine))
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
    let got = digest(7, true, SimEngine::Sparse);
    let want = Digest {
        corruptions: 68_632_069,
        signals: 381,
        detections: 17,
        series_csv: 0x9d12_71ac_ddd0_635f,
        trace_jsonl: 0xd7f3_ef09_599a_6f15,
        watch_render: 0x8c7d_8a27_4984_3066,
    };
    eprintln!(
        "closed sparse: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("closed sparse", &got, &want);
    // Scenario JSON written while runs still had a thread-count knob
    // carries `sim.parallelism`; it must parse and replay the same pin.
    let json = scenario(7, true, SimEngine::Sparse).to_json().replacen(
        "\"sim\": {",
        "\"sim\": {\"parallelism\": 8,",
        1,
    );
    assert!(json.contains("\"parallelism\": 8"), "legacy key injected");
    let legacy = Scenario::from_json(&json).expect("legacy sim.parallelism key parses");
    check("closed sparse, legacy JSON", &digest_of(&legacy), &want);
}

#[test]
fn legacy_open_loop_is_bit_identical_to_pre_refactor() {
    let got = digest(7, false, SimEngine::Sparse);
    let want = Digest {
        corruptions: 458_834_565,
        signals: 30_430,
        detections: 18,
        series_csv: 0xfc1a_1b5a_5f10_5c10,
        trace_jsonl: 0xbab9_4b5d_c7cd_565f,
        watch_render: 0x12bd_a6f4_5a1e_e9d2,
    };
    eprintln!(
        "open sparse: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("open sparse", &got, &want);
}

#[test]
fn legacy_dense_closed_loop_is_bit_identical_to_pre_refactor() {
    let got = digest(23, true, SimEngine::Dense);
    let want = Digest {
        corruptions: 9_592,
        signals: 274,
        detections: 5,
        series_csv: 0xfd0f_f437_64a6_f8e5,
        trace_jsonl: 0x39ea_604b_8a1c_6b68,
        watch_render: 0x63bd_1bdd_32a9_9ac1,
    };
    eprintln!(
        "closed dense: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    check("closed dense", &got, &want);
}

//! Prof-on parity: attaching a wall-clock profiler must not move a
//! single bit of any output. The digests here are the E20 legacy pins
//! (captured on the PR 7 head tree, long before `mercurial-prof`
//! existed), so this test simultaneously pins "prof-on == prof-off" and
//! "prof-on == pre-prof history" — the profiler's write-only contract,
//! enforced end to end: closed loop and open loop at two seeds, trace
//! and watch surfaces.

use mercurial::closedloop::{ClosedLoopDriver, RunOptions};
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

/// Run with an *enabled* profiler attached and return both the output
/// digest and the resulting profile.
fn digest_profiled(seed: u64, feedback: bool) -> (Digest, mercurial_prof::SelfProfile) {
    let s = scenario(seed, feedback);
    let experiment = FleetExperiment::build(&s);
    let prof = Prof::enabled();
    let opts = RunOptions {
        prof: Some(&prof),
        ..RunOptions::default()
    };
    let out = ClosedLoopDriver::execute_with(&s, &experiment, opts);
    let digest = Digest {
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
    };
    (digest, prof.finish())
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
fn profiled_closed_loop_matches_the_legacy_pins() {
    let (got, profile) = digest_profiled(7, true);
    let want = Digest {
        corruptions: 68_632_069,
        signals: 381,
        detections: 17,
        series_csv: 0x9d12_71ac_ddd0_635f,
        trace_jsonl: 0xd7f3_ef09_599a_6f15,
        watch_render: 0x8c7d_8a27_4984_3066,
    };
    check("profiled closed", &got, &want);
    // The profiler actually measured the loop it rode along with.
    assert!(profile.calls("loop.begin") > 0, "loop.begin recorded");
    assert_eq!(
        profile.calls("shard.epoch"),
        profile.calls("loop.ingest"),
        "one shard step per ingest"
    );
    assert!(
        profile.calls("shard.epoch;fleet.step") == profile.calls("shard.epoch"),
        "every epoch stepped the sim"
    );
    assert!(
        profile.calls("shard.epoch;screen.burnin") > 0,
        "burn-in screened"
    );
    assert!(
        profile.calls("loop.ingest;watch.eval") > 0,
        "watch evaluated in-loop"
    );
}

#[test]
fn profiled_open_loop_matches_the_legacy_pins() {
    let (got, profile) = digest_profiled(7, false);
    let want = Digest {
        corruptions: 458_834_565,
        signals: 30_430,
        detections: 18,
        series_csv: 0xfc1a_1b5a_5f10_5c10,
        trace_jsonl: 0xbab9_4b5d_c7cd_565f,
        watch_render: 0x12bd_a6f4_5a1e_e9d2,
    };
    check("profiled open", &got, &want);
    // The open loop steps the fleet through the same shard as the closed
    // loop, one shard step per epoch.
    let epochs = u64::from(FleetExperiment::build(&scenario(7, false)).sim().epochs());
    assert_eq!(
        profile.calls("shard.epoch"),
        epochs,
        "one shard step per epoch"
    );
    assert_eq!(
        profile.calls("shard.epoch;fleet.step"),
        profile.calls("shard.epoch"),
        "every epoch stepped the sim"
    );
    assert!(profile.calls("pipeline.batch") == 1, "one batch back half");
}

#[test]
fn profiled_seed_23_closed_loop_matches_the_legacy_pins() {
    let (got, _) = digest_profiled(23, true);
    let want = Digest {
        corruptions: 9_592,
        signals: 274,
        detections: 5,
        series_csv: 0xfd0f_f437_64a6_f8e5,
        trace_jsonl: 0x39ea_604b_8a1c_6b68,
        watch_render: 0x63bd_1bdd_32a9_9ac1,
    };
    check("profiled closed seed 23", &got, &want);
}

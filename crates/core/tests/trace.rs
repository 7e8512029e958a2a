//! Integration contracts of the structured-tracing layer.
//!
//! Three properties anchor the observability work:
//!
//! 1. **Determinism** — the recorded trace is a pure function of the
//!    scenario: two runs are bit-for-bit identical, the same §4.1
//!    contract the simulation itself honors. JSONL output is compared
//!    byte-wise because it serializes every event and metric.
//! 2. **Exporter validity** — the Chrome trace export is well-formed
//!    JSON with balanced span begin/end pairs, so Perfetto loads it.
//! 3. **Lifecycle coverage** — for a demo fleet with feedback on, at
//!    least one injected mercurial core's timeline shows the full
//!    onset → signal → quarantine → confirmation story.

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fault::CoreUid;
use mercurial::trace::{incident_timeline, EventKind, Recorder, Trace, TraceLevel};
use mercurial::Scenario;

fn traced_demo(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s
}

#[test]
fn trace_replays_bit_identically() {
    for seed in [5, 23] {
        let s = traced_demo(seed);
        let first = ClosedLoopDriver::execute(&s).trace.to_jsonl();
        assert!(!first.is_empty(), "seed {seed}: trace must record");
        assert_eq!(
            first,
            ClosedLoopDriver::execute(&s).trace.to_jsonl(),
            "seed {seed}: trace differs between two runs"
        );
    }
}

#[test]
fn disabled_tracing_records_nothing() {
    let mut s = Scenario::demo(5);
    s.closed_loop.feedback = true;
    assert!(!s.trace.enabled, "tracing must default to off");
    let out = ClosedLoopDriver::execute(&s);
    assert!(out.trace.is_empty(), "disabled run must leave no telemetry");
    assert_eq!(out.trace.to_jsonl(), "");
}

/// Spans must balance: every `B` has a matching later `E` of the same name.
fn assert_spans_balanced(trace: &Trace) {
    let mut open: Vec<&'static str> = Vec::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Begin => open.push(e.name),
            EventKind::End => {
                let i = open
                    .iter()
                    .rposition(|n| *n == e.name)
                    .unwrap_or_else(|| panic!("E `{}` without open B", e.name));
                open.remove(i);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
}

#[test]
fn chrome_export_is_valid_json_with_balanced_spans() {
    let out = ClosedLoopDriver::execute(&traced_demo(5));
    assert_spans_balanced(&out.trace);

    let chrome = out.trace.to_chrome_trace();
    let doc: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "chrome export must carry events");
    let phase = |v: &serde::Value| v.get("ph").and_then(serde::Value::as_str).map(String::from);
    let begins = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("B"))
        .count();
    let ends = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("E"))
        .count();
    assert_eq!(begins, ends, "chrome B/E phases must pair up");
    for e in events {
        assert!(e.get("name").is_some(), "every event is named");
        assert!(e.get("ph").is_some(), "every event has a phase");
    }
}

#[test]
fn timeline_tells_a_full_incident_story() {
    let out = ClosedLoopDriver::execute(&traced_demo(5));
    let timeline = incident_timeline(&out.trace, &|id| CoreUid::from_u64(id).to_string());
    assert!(timeline.starts_with("incident timeline ("));
    // At least one injected core runs the whole detection gauntlet.
    let full_story = timeline.lines().any(|l| {
        l.contains("onset@")
            && l.contains("signal@")
            && l.contains("quarantine@")
            && l.contains("confirm@")
    });
    assert!(
        full_story,
        "no core shows onset -> signal -> quarantine -> confirm:\n{timeline}"
    );
    // Stages within each core line read in chronological order.
    for line in timeline.lines().skip(1) {
        let hours: Vec<f64> = line
            .split("@h")
            .skip(1)
            .filter_map(|part| {
                part.split(|c: char| !c.is_ascii_digit() && c != '.')
                    .next()
                    .and_then(|h| h.parse().ok())
            })
            .collect();
        for w in hours.windows(2) {
            assert!(w[0] <= w[1], "stages out of order in: {line}");
        }
    }
}

#[test]
fn timeline_renders_a_pure_false_positive_core() {
    // A healthy core that draws signals and a quarantine but has no
    // gt.onset anchor — the audit layer's FP shape. The timeline must
    // still tell its story in causal order, without inventing an onset.
    let mut r = Recorder::new(TraceLevel::Record);
    r.instant(40.0, "score.first_signal", Some(11), 0.0);
    r.instant(55.0, "score.recidivist", Some(11), 0.3);
    r.instant(60.0, "core.suspect", Some(11), 0.0);
    r.instant(60.0, "core.quarantine", Some(11), 0.0);
    r.instant(72.0, "core.exonerate", Some(11), 0.0);
    r.instant(96.0, "core.restore", Some(11), 0.0);
    let s = incident_timeline(&r.finish(), &|id| format!("c{id}"));
    let line = s
        .lines()
        .find(|l| l.trim_start().starts_with("c11"))
        .unwrap();
    assert_eq!(
        line.trim(),
        "c11  signal@h40 -> recidivist@h55 -> suspect@h60 -> quarantine@h60 \
         -> exonerate@h72 -> restore@h96"
    );
    assert!(!line.contains("onset@"), "no ground truth, no onset stage");
}

#[test]
fn timeline_renders_false_exoneration_then_reconfirmation() {
    // The paper's "test escape": a mercurial core is exonerated (deep
    // check found nothing), returns to the pool, keeps corrupting, and is
    // re-quarantined and confirmed later. Both passes must render, in
    // causal order, on one line.
    let mut r = Recorder::new(TraceLevel::Record);
    r.instant(10.0, "gt.onset", Some(5), 0.0);
    r.instant(30.0, "score.first_signal", Some(5), 0.0);
    r.instant(50.0, "core.suspect", Some(5), 0.0);
    r.instant(50.0, "core.quarantine", Some(5), 0.0);
    r.instant(62.0, "core.exonerate", Some(5), 0.0);
    r.instant(70.0, "core.restore", Some(5), 0.0);
    // Second pass: fresh evidence, emitted out of hour order (a later
    // evidence batch can carry an earlier-hour signal).
    r.instant(130.0, "core.suspect", Some(5), 0.0);
    r.instant(120.0, "score.recidivist", Some(5), 0.4);
    r.instant(130.0, "core.quarantine", Some(5), 0.0);
    r.instant(144.0, "detect.triage", Some(5), 0.0);
    r.instant(144.0, "core.confirm", Some(5), 0.0);
    let s = incident_timeline(&r.finish(), &|id| format!("c{id}"));
    let line = s
        .lines()
        .find(|l| l.trim_start().starts_with("c5"))
        .unwrap();
    assert_eq!(
        line.trim(),
        "c5  onset@h10 -> signal@h30 -> suspect@h50 -> quarantine@h50 \
         -> exonerate@h62 -> restore@h70 -> recidivist@h120 -> suspect@h130 \
         -> quarantine@h130 -> detect(triage)@h144 -> confirm@h144"
    );
}

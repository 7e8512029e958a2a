//! Byte identity of the JSON writers: `push_num` must write what
//! `format!("{v}")` writes for every finite value, and `0` for the rest,
//! because the trace, ledger and case-book exports are pinned by digest.
//! The integer and string writers, and the Chrome export built on them,
//! are checked the same way. The JSONL reader must invert the JSONL
//! writer bit for bit, and its two folds (the watch and audit replays)
//! must reject a malformed line with the reader's own message.

use mercurial_audit::DecisionLedger;
use mercurial_trace::export::{
    push_json_str, push_num, push_u64, read_jsonl, HistogramLine, JsonlEvent, JsonlLine,
    JsonlMetric,
};
use mercurial_trace::{EventKind, Recorder, TraceLevel};
use mercurial_watch::WatchInput;

fn num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

#[test]
fn push_num_is_display_on_a_seeded_sweep() {
    // A million random bit patterns (almost all fractional or huge),
    // plus the whole numbers and hour-like fractions each one yields:
    // integers below and above the 2^53 cut-off of the integer path.
    let mut state = 24_301u64;
    for _ in 0..1_000_000 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        for v in [
            f64::from_bits(z),
            (z >> 11) as f64,
            (z >> 9) as f64,
            (z % 1_000_000) as f64 / 8.0,
        ] {
            if v.is_finite() {
                assert_eq!(num(v), format!("{v}"), "bits {:#x}", v.to_bits());
            }
        }
    }
}

#[test]
fn push_num_is_display_on_the_edges() {
    let two53 = 9_007_199_254_740_992.0f64;
    let mut edges = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        -1.0,
        -42.0,
        -two53,
        two53 - 1.0,
        two53,
        two53 + 2.0,
        1e15,
        1e16,
        1e17,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        73.0,
        8760.5,
    ];
    edges.extend((0..64).map(|i| 2f64.powi(i)));
    for v in edges {
        assert_eq!(num(v), format!("{v}"), "{v:e}");
    }
    for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(num(v), "0");
    }
}

#[test]
fn push_u64_is_display() {
    let mut out = String::new();
    for n in [0, 7, 10, 12_884_967_426, u64::MAX] {
        push_u64(&mut out, n);
        out.push(' ');
    }
    assert_eq!(out, format!("0 7 10 12884967426 {} ", u64::MAX));
}

#[test]
fn push_json_str_passes_tame_names_and_escapes_the_rest() {
    let mut out = String::new();
    for s in ["score.first_signal", "cœur", "a\"b\\c\nd", "\u{1}"] {
        push_json_str(&mut out, s);
        out.push('|');
    }
    assert_eq!(out, "score.first_signal|cœur|a\\\"b\\\\c\\nd|\\u0001|");
}

#[test]
fn chrome_instant_args_take_every_shape() {
    let mut r = Recorder::new(TraceLevel::Record);
    r.instant(1.0, "alert.fired", None, 2.0);
    r.instant(2.5, "loop.mark", None, 0.0);
    r.instant(3.0, "score.signal", Some(7), 0.5);
    assert_eq!(
        r.finish().to_chrome_trace(),
        "{\"traceEvents\":[\n\
         {\"name\":\"alert.fired\",\"ph\":\"i\",\"s\":\"p\",\"ts\":1000,\"pid\":1,\"tid\":1,\"args\":{\"value\":2}},\n\
         {\"name\":\"loop.mark\",\"ph\":\"i\",\"s\":\"p\",\"ts\":2500,\"pid\":1,\"tid\":1,\"args\":{}},\n\
         {\"name\":\"score.signal\",\"ph\":\"i\",\"s\":\"p\",\"ts\":3000,\"pid\":1,\"tid\":1,\"args\":{\"core\":7,\"value\":0.5}}\n\
         ]}\n"
    );
}

/// Every event kind, with and without a core, and with a zero payload
/// (omitted from instants, kept on gauges); every metric kind, and a
/// histogram with and without quantiles. Values are the awkward ones:
/// shortest-roundtrip fractions, subnormals, integers past 2^53.
#[test]
fn jsonl_reads_back_what_it_wrote_bit_for_bit() {
    let mut r = Recorder::new(TraceLevel::Record);
    r.begin(0.0, "loop.epoch");
    r.instant(0.1, "core.quarantine", Some(u64::MAX), 0.0);
    r.instant(
        26_279.999_999_999_996,
        "score.signal",
        Some(12_884_967_426),
        7.0,
    );
    r.instant(1e-300, "alert.fired", None, f64::from_bits(1));
    r.instant(73.0, "loop.mark", None, 0.0);
    r.gauge(73.0, "capacity.availability", 0.0);
    r.gauge(73.0, "epoch.corrupt_ops", 18_014_398_509_481_984.0);
    r.gauge(146.0, "fleet.active_mercurial", -2.5);
    r.end(146.0, "loop.epoch");
    r.counter_add("sim.corruptions", u64::MAX);
    r.counter_add("gt.mercurial_cores", 0);
    r.gauge(146.0, "capacity.with_safetask", 0.999_999_999_999_9);
    for sample in [0.5, 3.0, 120.0, 1e9] {
        r.observe("detect.latency_hours", sample);
    }
    r.observe("sim.epoch_signals", f64::NAN);
    let trace = r.finish();

    let lines: Vec<JsonlLine> = read_jsonl(&trace.to_jsonl())
        .collect::<Result<_, _>>()
        .expect("the export reads back");
    let mut want: Vec<JsonlLine> = trace
        .events
        .iter()
        .map(|e| {
            JsonlLine::Event(JsonlEvent {
                hour: e.hour,
                kind: e.kind,
                name: e.name.to_string(),
                core: e.core,
                value: e.value,
            })
        })
        .collect();
    let metrics = &trace.metrics;
    for (name, v) in metrics.counters() {
        want.push(JsonlLine::Metric(name.to_string(), JsonlMetric::Counter(v)));
    }
    for (name, v) in metrics.gauges() {
        want.push(JsonlLine::Metric(name.to_string(), JsonlMetric::Gauge(v)));
    }
    for (name, h) in metrics.histograms() {
        let line = HistogramLine {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max(),
        };
        want.push(JsonlLine::Metric(
            name.to_string(),
            JsonlMetric::Histogram(line),
        ));
    }
    assert_eq!(lines.len(), want.len());
    for (got, want) in lines.iter().zip(&want) {
        assert_eq!(bits(got), bits(want), "{got:?} != {want:?}");
    }
    // Both histogram shapes were exercised.
    let quantiles: Vec<bool> = want
        .iter()
        .filter_map(|l| match l {
            JsonlLine::Metric(_, JsonlMetric::Histogram(h)) => Some(h.p50.is_some()),
            _ => None,
        })
        .collect();
    assert_eq!(quantiles, [true, false]);
    let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
    for kind in [
        EventKind::Begin,
        EventKind::End,
        EventKind::Instant,
        EventKind::Gauge,
    ] {
        assert!(kinds.contains(&kind), "{kind:?}");
    }
}

/// A line with every float replaced by its bit pattern, so the
/// comparison is exact (`0.0 == -0.0` and `NaN != NaN` under `==`).
fn bits(line: &JsonlLine) -> String {
    let b = |v: f64| v.to_bits();
    let ob = |v: Option<f64>| v.map(f64::to_bits);
    match line {
        JsonlLine::Event(e) => format!(
            "event {} {:?} {} {:?} {}",
            b(e.hour),
            e.kind,
            e.name,
            e.core,
            b(e.value)
        ),
        JsonlLine::Metric(name, JsonlMetric::Counter(v)) => format!("counter {name} {v}"),
        JsonlLine::Metric(name, JsonlMetric::Gauge(v)) => format!("gauge {name} {}", b(*v)),
        JsonlLine::Metric(name, JsonlMetric::Histogram(h)) => format!(
            "histogram {name} {} {} {:?} {:?} {:?} {:?} {:?}",
            h.count,
            b(h.sum),
            ob(h.min),
            ob(h.p50),
            ob(h.p95),
            ob(h.p99),
            ob(h.max)
        ),
    }
}

#[test]
fn malformed_lines_get_one_message_from_the_reader_and_both_replays() {
    let cases = [
        ("not json", "not json", "line 2: "),
        (
            "missing n",
            "{\"h\":1,\"k\":\"I\"}",
            "line 2: missing \"n\"",
        ),
        (
            "missing h",
            "{\"k\":\"I\",\"n\":\"x\"}",
            "line 2: missing \"h\"",
        ),
        (
            "missing k",
            "{\"h\":1,\"n\":\"x\"}",
            "line 2: missing \"k\"",
        ),
        (
            "unknown event kind",
            "{\"h\":1,\"k\":\"X\",\"n\":\"x\"}",
            "line 2: unknown event kind `X`",
        ),
        (
            "gauge without v",
            "{\"h\":1,\"k\":\"G\",\"n\":\"epoch.corrupt_ops\"}",
            "line 2: missing \"v\"",
        ),
        (
            "unknown metric kind",
            "{\"metric\":\"summary\",\"n\":\"x\",\"v\":1}",
            "line 2: unknown metric kind `summary`",
        ),
        (
            "counter without v",
            "{\"metric\":\"counter\",\"n\":\"gt.mercurial_cores\"}",
            "line 2: missing \"v\"",
        ),
        (
            "histogram without count",
            "{\"metric\":\"histogram\",\"n\":\"x\",\"sum\":1}",
            "line 2: missing \"count\"",
        ),
        (
            "bad core",
            "{\"h\":1,\"k\":\"I\",\"n\":\"core.confirm\",\"core\":-7}",
            "line 2: bad \"core\"",
        ),
        (
            "bad hour",
            "{\"h\":\"noon\",\"k\":\"I\",\"n\":\"x\"}",
            "line 2: bad \"h\"",
        ),
    ];
    for (case, line, want) in cases {
        // A good line first, so the bad one is line 2.
        let text = format!("{{\"h\":0,\"k\":\"B\",\"n\":\"loop.epoch\"}}\n{line}\n");
        let read = read_jsonl(&text)
            .find_map(Result::err)
            .unwrap_or_else(|| panic!("{case}: the reader accepted {line}"));
        assert!(read.starts_with(want), "{case}: {read}");
        let watch = WatchInput::from_jsonl(&text).expect_err(case);
        let audit = DecisionLedger::from_trace_jsonl(&text).expect_err(case);
        assert_eq!(watch, read, "{case}: watch replay");
        assert_eq!(audit, read, "{case}: audit replay");
    }
}

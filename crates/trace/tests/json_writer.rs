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

/// splitmix64: the sweep's seeded source of bit patterns.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An exact tie `i + odd/2^(f+1)`: `v·10^f` is a half-integer, and
/// `f` is the least count of fractional digits whose `10^-f` fits in
/// one ulp of `v`, so both neighbours of the half-integer may lie in
/// the rounding interval. Returns the value, `f` and `2·v·10^f`.
fn tie_candidate(z: u64) -> (f64, usize, u128) {
    let bits = 1 + (z % 45) as u32; // integer part of 1..=45 bits
    let i = (1u64 << (bits - 1)) | (z >> 20) & ((1u64 << (bits - 1)) - 1);
    let ulp_exp = bits as i32 - 1 - 52;
    let f = (0..)
        .find(|&f| 10f64.powi(f) >= 2f64.powi(-ulp_exp))
        .unwrap() as usize;
    let odd = ((z >> 7) | 1) & ((1u64 << (f + 1)) - 1);
    let v = i as f64 + odd as f64 / 2f64.powi(f as i32 + 1);
    let twice_scaled =
        2 * u128::from(i) * 10u128.pow(f as u32) + u128::from(odd) * 5u128.pow(f as u32);
    (v, f, twice_scaled)
}

/// Whether `text` (a positive `f`-digit fraction) is a neighbour of the
/// half-integer `twice_scaled / 2` at `f` digits, i.e. `Display` met a tie.
fn is_tie(text: &str, f: usize, twice_scaled: u128) -> bool {
    let Some((int, frac)) = text.split_once('.') else {
        return false;
    };
    if frac.len() != f {
        return false;
    }
    let digits: u128 = format!("{int}{frac}").parse().unwrap();
    2 * digits == twice_scaled + 1 || 2 * digits + 1 == twice_scaled
}

#[test]
fn push_num_is_display_on_a_seeded_sweep() {
    // Over 2.5 million seeded values in every class the exports meet or the
    // writer treats apart: hours of a 36-month run, uniform bit patterns,
    // subnormals, fractions below 1 with leading zeros (in and below the
    // exact range), whole numbers below and above 2^53, exact ties, and
    // each of those negated.
    let hours_end = 26_280.0;
    let mut state = 24_301u64;
    let (mut checked, mut ties) = (0usize, 0usize);
    let mut check = |v: f64| {
        for v in [v, -v] {
            if v.is_finite() {
                assert_eq!(num(v), format!("{v}"), "bits {:#x}", v.to_bits());
                checked += 1;
            }
        }
    };
    for _ in 0..150_000 {
        let z = next(&mut state);
        let unit = (z >> 11) as f64 / 9_007_199_254_740_992.0;
        check(unit * hours_end);
        check((z % 2_102_400) as f64 / 80.0); // hours on a 45-second grid
        check(f64::from_bits(z));
        check(f64::from_bits(z & 0x000f_ffff_ffff_ffff)); // subnormal
        check(unit * 0.1); // 0.0…: leading zeros, often below 2^-8
        check(unit / 256.0); // below the exact range
        check((z >> 11) as f64);
        check((z >> (z % 40)) as f64); // integers at and above 2^53
        let (v, f, twice_scaled) = tie_candidate(z);
        check(v);
        ties += usize::from(is_tie(&num(v), f, twice_scaled));
    }
    assert!(checked >= 2_500_000, "{checked} values");
    assert!(ties >= 10_000, "only {ties} exact ties");
}

#[test]
fn push_num_breaks_exact_ties_upward() {
    // `Display` rounds a tie between two shortest candidates up, which
    // is not Ryu's half-even rule.
    // 33962326888.5703125 exactly: six decimals fit in its interval and
    // the seventh is a 5.
    let tie = 33_962_326_888.0 + 73.0 / 128.0;
    for (v, text) in [(tie, "33962326888.570313"), (0.5, "0.5")] {
        assert_eq!(format!("{v}"), text);
        assert_eq!(num(v), text);
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
    // Powers of two, whose lower neighbour is half as far as the upper,
    // and the values either side of each.
    let powers = (0..52).map(|k| 1u64 << k).chain((1..2047).map(|e| e << 52));
    for bits in powers {
        edges.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
    }
    edges.extend([1e-7, 1e21, -1e-7, -1e21, 2f64.powi(-8), 2f64.powi(52) - 0.5]);
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

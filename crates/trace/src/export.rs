//! Exporters: JSONL, Prometheus text exposition, Chrome trace-event JSON,
//! and [`read_jsonl`], the reader of the JSONL export.
//!
//! The exporters are hand-rolled and deterministic: floats are written
//! as Rust's shortest-roundtrip `Display` writes them, events in merge
//! order, and metrics in `BTreeMap` order.
//!
//! [`push_json_str`], [`push_u64`], [`push_num`] and [`HourCache`] are the
//! one JSON text writer of the workspace's JSONL exports (trace, decision
//! ledger, case book): each appends to the caller's `String` without a
//! temporary and writes exactly the bytes `format!` would.

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};
use crate::metric::MetricSet;
use crate::recorder::Trace;

/// Append `s` as the body of a JSON string literal: a name with no byte
/// that needs escaping is pushed as it is. The test folds over every
/// byte without stopping early, which the compiler vectorises.
pub fn push_json_str(out: &mut String, s: &str) {
    let tame = s.bytes().fold(true, |tame, b| {
        tame & (b >= 0x20) & (b != b'"') & (b != b'\\')
    });
    if tame {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `n` in decimal.
pub fn push_u64(out: &mut String, n: u64) {
    push_digits(out, n, 1);
}

/// `"00"`, `"01"`, …, `"99"`. Digits are appended as slices of this
/// string, two at a time, so no digit buffer needs UTF-8 validation.
const DIGIT_PAIRS: &str = {
    const BYTES: [u8; 200] = {
        let mut t = [0u8; 200];
        let mut i = 0;
        while i < 100 {
            t[2 * i] = b'0' + (i / 10) as u8;
            t[2 * i + 1] = b'0' + (i % 10) as u8;
            i += 1;
        }
        t
    };
    match std::str::from_utf8(&BYTES) {
        Ok(s) => s,
        Err(_) => panic!("ASCII digits"),
    }
};

/// Append `n`, zero-padded to at least `width` digits (at most 20).
/// Inlined, so `push_u64`'s constant `width` folds away.
#[inline(always)]
fn push_digits(out: &mut String, mut n: u64, width: usize) {
    // Four-digit chunks, least significant first, then the leading one
    // with as many digits as it has or the padding asks for.
    let mut chunks = [0usize; 5];
    let mut k = 0;
    while n >= 10_000 || 4 * (k + 1) < width {
        chunks[k] = (n % 10_000) as usize;
        n /= 10_000;
        k += 1;
    }
    let lead = n as usize;
    let lead_digits =
        1 + usize::from(lead >= 10) + usize::from(lead >= 100) + usize::from(lead >= 1000);
    push_chunk(out, lead, lead_digits.max(width.saturating_sub(4 * k)));
    for &chunk in chunks[..k].iter().rev() {
        push_chunk(out, chunk, 4);
    }
}

/// Append the `width` (1 to 4) low digits of `n`, zero-padded.
#[inline(always)]
fn push_chunk(out: &mut String, n: usize, width: usize) {
    let pair = |out: &mut String, p: usize| out.push_str(&DIGIT_PAIRS[2 * p..2 * p + 2]);
    let digit = |out: &mut String, d: usize| out.push_str(&DIGIT_PAIRS[2 * d + 1..2 * d + 2]);
    match width {
        4 => {
            pair(out, n / 100);
            pair(out, n % 100);
        }
        3 => {
            digit(out, n / 100);
            pair(out, n % 100);
        }
        2 => pair(out, n),
        _ => digit(out, n),
    }
}

/// Append `v` as a JSON number, byte for byte `format!("{v}")`: Rust's
/// `Display` prints the shortest string that round-trips, which is
/// deterministic. A whole value below 2^53 is exactly its integer digits;
/// a fraction in [`push_fraction`]'s range is written by exact integer
/// arithmetic; anything else (subnormals, magnitudes below 2^-8 or from
/// 2^53 up) goes through `Display` itself. Non-finite values (never
/// produced by the recorder's clocked paths) degrade to `0`.
pub fn push_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push('0');
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    let v = v.abs();
    if v < 9_007_199_254_740_992.0 && v as u64 as f64 == v {
        push_u64(out, v as u64);
    } else if !push_fraction(out, v) {
        let _ = write!(out, "{v}");
    }
}

/// `10^i` for every `i` whose power fits a `u64`.
const POW10: [u64; 20] = {
    let mut p = [1u64; 20];
    let mut i = 1;
    while i < p.len() {
        p[i] = p[i - 1] * 10;
        i += 1;
    }
    p
};

/// The least `f` with `10^f >= 2^q`, for `1 <= q <= 63`: `1233 / 4096`
/// is `log10(2)` to within `6e-6`, close enough for every such `q`.
fn least_pow10_at_least_pow2(q: u32) -> usize {
    ((q as usize * 1233) >> 12) + 1
}

/// Append a positive, non-integer `v = m·2^e` with `-60 <= e < 0` (that
/// is, `2^-8 <= v < 2^52`) the way `Display` does, and return `true`; any
/// other value is left to the caller.
///
/// `Display` prints the shortest decimal inside `v`'s rounding interval
/// (half an ulp each side, a quarter below a power of two, ends included
/// when `m` is even), and of two shortest candidates the closer one, an
/// exact tie rounding *up* (`33962326888.5703125` prints
/// `33962326888.570313`, not Ryu's half-even `…570312`). In units of
/// `2^-q` the interval is `[mant - 1, mant + plus]` with `q <= 62`, so
/// scaled by `10^f` (`f <= 19`) it is exact in a `u128`. At the least `f`
/// with `10^f >= 2^q` it holds integers; the least `f` whose scaled
/// interval still holds one is found by dividing its integer bounds by
/// ten, which keeps them exact (`floor(floor(x)/10) = floor(x/10)`).
fn push_fraction(out: &mut String, v: f64) -> bool {
    let bits = v.to_bits();
    let e = (bits >> 52) as i32 - 1075;
    if bits >> 52 == 0 || !(-60..0).contains(&e) {
        return false;
    }
    let stored = bits & ((1 << 52) - 1);
    let m = stored | 1 << 52;
    let inclusive = m.is_multiple_of(2);
    // `v = mant·2^-q`; a power of two's lower neighbour is half as far.
    let (mant, plus, q) = if stored == 0 {
        (m << 2, 2, (2 - e) as u32)
    } else {
        (m << 1, 1, (1 - e) as u32)
    };
    let mask = (1u128 << q) - 1;
    let mut f = least_pow10_at_least_pow2(q);
    let scale = u128::from(POW10[f]);
    let x = u128::from(mant) * scale;
    let (lo_edge, hi_edge) = (x - scale, x + plus * scale);
    // The least and greatest integers in the scaled interval.
    let mut lo = ((lo_edge + mask) >> q) as u64;
    let mut hi = (hi_edge >> q) as u64;
    if !inclusive {
        lo += u64::from(lo_edge & mask == 0);
        hi -= u64::from(hi_edge & mask == 0);
    }
    while f > 0 && lo.div_ceil(10) <= hi / 10 {
        lo = lo.div_ceil(10);
        hi /= 10;
        f -= 1;
    }
    // `v·10^f` is `down + rem/2^q`: round up when only the upper
    // neighbour is in the interval, or both are and `rem` is at least
    // half (ties up).
    let x = u128::from(mant) * u128::from(POW10[f]);
    let down = (x >> q) as u64;
    let rem = x & mask;
    let n = if down < hi && (down < lo || rem > mask >> 1) {
        down + 1
    } else {
        down
    };
    // `n`'s integer digits are `v`'s, or one more when rounding carried
    // into them.
    let (mut int, unit) = (mant >> q, POW10[f]);
    let mut fraction = n - int * unit;
    if fraction >= unit {
        int += 1;
        fraction -= unit;
    }
    push_u64(out, int);
    out.push('.');
    push_digits(out, fraction, f);
    true
}

/// [`push_num`] into a fresh `String`, for the Prometheus exposition.
fn json_num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// A one-entry cache of the last hour written and its JSON text. About
/// half the lines of a trace or ledger export repeat the hour of the line
/// before (a `score.signal` and its `score.first_signal`), so each run of
/// equal hours is formatted once.
#[derive(Debug, Default)]
pub struct HourCache {
    bits: u64,
    text: String,
}

impl HourCache {
    /// Append `hour` as [`push_num`] would.
    pub fn push(&mut self, out: &mut String, hour: f64) {
        if self.text.is_empty() || hour.to_bits() != self.bits {
            self.bits = hour.to_bits();
            self.text.clear();
            push_num(&mut self.text, hour);
        }
        out.push_str(&self.text);
    }
}

/// Append one event's JSONL line (newline included):
/// `{"h":<hour>,"k":"B|E|I|G","n":"<name>"[,"core":<u64>][,"v":<value>]}`.
///
/// Both [`to_jsonl`] and the incremental [`crate::stream::JsonlStreamSink`]
/// format events through this one function, which is what makes the
/// streamed file byte-identical to the buffered export by construction.
pub fn write_jsonl_event(out: &mut String, hours: &mut HourCache, e: &TraceEvent) {
    out.push_str("{\"h\":");
    hours.push(out, e.hour);
    out.push_str(",\"k\":\"");
    out.push(e.kind.code());
    out.push_str("\",\"n\":\"");
    push_json_str(out, e.name);
    out.push('"');
    if let Some(core) = e.core {
        out.push_str(",\"core\":");
        push_u64(out, core);
    }
    if e.value != 0.0 || e.kind == EventKind::Gauge {
        out.push_str(",\"v\":");
        push_num(out, e.value);
    }
    out.push_str("}\n");
}

/// Append the metric tail of a JSONL export: one `metric` line per
/// counter, gauge, and histogram, in name order. Shared by [`to_jsonl`]
/// and [`crate::stream::JsonlStreamSink::finish`].
pub fn write_jsonl_metrics(out: &mut String, metrics: &MetricSet) {
    let head = |out: &mut String, kind: &str, name: &str, field: &str| {
        out.push_str("{\"metric\":\"");
        out.push_str(kind);
        out.push_str("\",\"n\":\"");
        push_json_str(out, name);
        out.push_str(field);
    };
    for (name, v) in metrics.counters() {
        head(out, "counter", name, "\",\"v\":");
        push_u64(out, v);
        out.push_str("}\n");
    }
    for (name, v) in metrics.gauges() {
        head(out, "gauge", name, "\",\"v\":");
        push_num(out, v);
        out.push_str("}\n");
    }
    for (name, h) in metrics.histograms() {
        head(out, "histogram", name, "\",\"count\":");
        push_u64(out, h.count());
        out.push_str(",\"sum\":");
        push_num(out, h.sum());
        for (label, q) in [
            (",\"min\":", h.min()),
            (",\"p50\":", h.p50()),
            (",\"p95\":", h.p95()),
            (",\"p99\":", h.p99()),
            (",\"max\":", h.max()),
        ] {
            if let Some(q) = q {
                out.push_str(label);
                push_num(out, q);
            }
        }
        out.push_str("}\n");
    }
}

/// JSONL event log: one JSON object per line. Events first (merge order),
/// then one `metric` line per counter, gauge, and histogram (name order).
///
/// Event lines: `{"h":<hour>,"k":"B|E|I|G","n":"<name>"[,"core":<u64>][,"v":<value>]}`.
pub fn to_jsonl(trace: &Trace) -> String {
    // A typical event line is ~70 bytes; the metric tail is a few hundred.
    let mut out = String::with_capacity(trace.events.len() * 72);
    let mut hours = HourCache::default();
    for e in &trace.events {
        write_jsonl_event(&mut out, &mut hours, e);
    }
    write_jsonl_metrics(&mut out, &trace.metrics);
    out
}

/// One line of a trace JSONL export, read back by [`read_jsonl`]: the
/// inverse of [`write_jsonl_event`] and [`write_jsonl_metrics`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonlLine {
    /// An event line.
    Event(JsonlEvent),
    /// A `metric` line: the metric's name and value.
    Metric(String, JsonlMetric),
}

/// An event line: a [`TraceEvent`] with an owned name.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlEvent {
    /// `h`: the simulation hour.
    pub hour: f64,
    /// `k`: the event kind.
    pub kind: EventKind,
    /// `n`: the event name.
    pub name: String,
    /// `core`: the packed `CoreUid`, when the line has one.
    pub core: Option<u64>,
    /// `v`: the payload, 0 when the line omits it (a gauge never does).
    pub value: f64,
}

/// A metric line's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonlMetric {
    /// `{"metric":"counter",…,"v":<u64>}`.
    Counter(u64),
    /// `{"metric":"gauge",…,"v":<f64>}`.
    Gauge(f64),
    /// `{"metric":"histogram",…}`.
    Histogram(HistogramLine),
}

/// What a histogram line carries: the count and sum, and the quantiles a
/// histogram with finite samples exports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramLine {
    /// `count`: samples observed.
    pub count: u64,
    /// `sum`: sum of the finite samples.
    pub sum: f64,
    /// `min`.
    pub min: Option<f64>,
    /// `p50`.
    pub p50: Option<f64>,
    /// `p95`.
    pub p95: Option<f64>,
    /// `p99`.
    pub p99: Option<f64>,
    /// `max`.
    pub max: Option<f64>,
}

/// Read a trace JSONL export (buffered or streamed: they are
/// byte-identical) one line at a time, skipping blank lines. Every number
/// the writer wrote reads back bit for bit, except that `-0` reads as 0
/// and a non-finite value, which the writer writes as `0`, stays 0.
///
/// # Errors
///
/// An item is `Err("line N: …")`, N counted from 1, for a line that is
/// not JSON, lacks a field its kind needs (`n`; `k` and `h` on an event,
/// `v` on a gauge event; `v`, or `count` and `sum`, on a metric), holds a
/// field of the wrong type, or names an unknown event or metric kind.
pub fn read_jsonl(text: &str) -> impl Iterator<Item = Result<JsonlLine, String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(ix, line)| read_line(line).map_err(|e| format!("line {}: {e}", ix + 1)))
}

fn read_line(line: &str) -> Result<JsonlLine, String> {
    let v: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let name = required(&v, "n")?;
    if let Some(metric) = v.get("metric") {
        let metric = match metric.as_str() {
            Some("counter") => JsonlMetric::Counter(required(&v, "v")?),
            Some("gauge") => JsonlMetric::Gauge(required(&v, "v")?),
            Some("histogram") => JsonlMetric::Histogram(HistogramLine {
                count: required(&v, "count")?,
                sum: required(&v, "sum")?,
                min: optional(&v, "min")?,
                p50: optional(&v, "p50")?,
                p95: optional(&v, "p95")?,
                p99: optional(&v, "p99")?,
                max: optional(&v, "max")?,
            }),
            Some(other) => return Err(format!("unknown metric kind `{other}`")),
            None => return Err("bad \"metric\": not a string".to_string()),
        };
        return Ok(JsonlLine::Metric(name, metric));
    }
    let kind = match required::<String>(&v, "k")?.as_str() {
        "B" => EventKind::Begin,
        "E" => EventKind::End,
        "I" => EventKind::Instant,
        "G" => EventKind::Gauge,
        other => return Err(format!("unknown event kind `{other}`")),
    };
    let hour = required(&v, "h")?;
    let core = optional(&v, "core")?;
    let value = match optional(&v, "v")? {
        Some(value) => value,
        None if kind == EventKind::Gauge => return Err("missing \"v\"".to_string()),
        None => 0.0,
    };
    Ok(JsonlLine::Event(JsonlEvent {
        hour,
        kind,
        name,
        core,
        value,
    }))
}

/// Field `key` of a line, `None` when absent.
fn optional<T: serde::Deserialize>(v: &serde::Value, key: &str) -> Result<Option<T>, String> {
    v.get(key)
        .map(|x| T::from_value(x).map_err(|e| format!("bad \"{key}\": {e}")))
        .transpose()
}

/// Field `key` of a line, an error when absent.
fn required<T: serde::Deserialize>(v: &serde::Value, key: &str) -> Result<T, String> {
    optional(v, key)?.ok_or_else(|| format!("missing \"{key}\""))
}

/// Escape a string for use as a Prometheus label *value* per the text
/// exposition format: backslash, double-quote, and line-feed must be
/// escaped (`\\`, `\"`, `\n`); everything else passes through verbatim.
/// Rule names and workload-class names are operator-supplied, so the
/// status page and audit sections must not trust them to be tame.
pub fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitize a dot-namespaced metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("mercurial_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus text exposition of the final metric set. Counters and gauges
/// export directly; histograms export as summaries with p50/p95/p99
/// quantile samples plus `_sum` and `_count`.
pub fn to_prometheus(trace: &Trace) -> String {
    metrics_to_prometheus(&trace.metrics)
}

/// Prometheus text exposition of a bare metric set — the same body as
/// [`to_prometheus`] without needing a finished [`Trace`], so a live
/// status endpoint can render mid-run snapshots.
pub fn metrics_to_prometheus(metrics: &MetricSet) -> String {
    let mut out = String::new();
    for (name, v) in metrics.counters() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in metrics.gauges() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", json_num(v));
    }
    for (name, h) in metrics.histograms() {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
            if let Some(v) = v {
                let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", json_num(v));
            }
        }
        let _ = writeln!(out, "{n}_sum {}", json_num(h.sum()));
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object format),
/// loadable in Perfetto / `chrome://tracing`.
///
/// The simulated hour maps to microsecond timestamps at 1 hour = 1000 µs
/// so a multi-year run stays navigable. Spans emit `B`/`E` pairs, instants
/// `i` (process-scoped), gauges `C` counter samples.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in trace.events.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"name\":\"");
        push_json_str(&mut out, e.name);
        out.push_str(match e.kind {
            EventKind::Begin => "\",\"ph\":\"B\",\"ts\":",
            EventKind::End => "\",\"ph\":\"E\",\"ts\":",
            EventKind::Instant => "\",\"ph\":\"i\",\"s\":\"p\",\"ts\":",
            EventKind::Gauge => "\",\"ph\":\"C\",\"ts\":",
        });
        push_num(&mut out, e.hour * 1000.0);
        out.push_str(",\"pid\":1,\"tid\":1");
        match e.kind {
            EventKind::Begin | EventKind::End => {}
            EventKind::Instant => {
                out.push_str(",\"args\":{");
                if let Some(core) = e.core {
                    out.push_str("\"core\":");
                    push_u64(&mut out, core);
                }
                if e.value != 0.0 {
                    out.push_str(if e.core.is_some() { "," } else { "" });
                    out.push_str("\"value\":");
                    push_num(&mut out, e.value);
                }
                out.push('}');
            }
            EventKind::Gauge => {
                out.push_str(",\"args\":{\"value\":");
                push_num(&mut out, e.value);
                out.push('}');
            }
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::recorder::{Recorder, TraceLevel};

    #[test]
    fn scale_estimate_is_the_least_power_of_ten_past_each_power_of_two() {
        for q in 1..=63 {
            let f = super::least_pow10_at_least_pow2(q);
            assert!(10u128.pow(f as u32) >= 1 << q, "q {q}");
            assert!(10u128.pow(f as u32 - 1) < 1 << q, "q {q}");
        }
    }

    fn sample_trace() -> crate::recorder::Trace {
        let mut r = Recorder::new(TraceLevel::Record);
        r.begin(0.0, "sim.epoch");
        r.instant(
            10.5,
            "detect.online",
            Some((3u64 << 32) | (1 << 16) | 2),
            0.0,
        );
        r.gauge(73.0, "capacity.availability", 0.9975);
        r.counter_add("sim.corruptions", 42);
        r.observe("screen.latency_hours", 120.0);
        r.end(73.0, "sim.epoch");
        r.finish()
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let t = sample_trace();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // 4 events + 1 counter + 1 gauge + 1 histogram metric line.
        assert_eq!(lines.len(), 7);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(lines[0], "{\"h\":0,\"k\":\"B\",\"n\":\"sim.epoch\"}");
        assert_eq!(
            lines[1],
            "{\"h\":10.5,\"k\":\"I\",\"n\":\"detect.online\",\"core\":12884967426}"
        );
        assert_eq!(
            lines[2],
            "{\"h\":73,\"k\":\"G\",\"n\":\"capacity.availability\",\"v\":0.9975}"
        );
        assert!(jsonl.contains("\"metric\":\"counter\",\"n\":\"sim.corruptions\",\"v\":42"));
        assert!(jsonl.contains("\"metric\":\"histogram\""));
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(sample_trace().to_jsonl(), sample_trace().to_jsonl());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let prom = sample_trace().to_prometheus();
        assert!(prom.contains("# TYPE mercurial_sim_corruptions counter"));
        assert!(prom.contains("mercurial_sim_corruptions 42"));
        assert!(prom.contains("# TYPE mercurial_capacity_availability gauge"));
        assert!(prom.contains("mercurial_screen_latency_hours{quantile=\"0.5\"} 120"));
        assert!(prom.contains("mercurial_screen_latency_hours_count 1"));
    }

    #[test]
    fn chrome_trace_has_balanced_spans_and_valid_shape() {
        let chrome = sample_trace().to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
        let begins = chrome.matches("\"ph\":\"B\"").count();
        let ends = chrome.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 1);
        // Braces balance — a cheap structural check; the bench validates
        // full JSON parsing with serde_json.
        let open = chrome.matches('{').count();
        let close = chrome.matches('}').count();
        assert_eq!(open, close);
        // Hour 73.0 → ts 73000 µs.
        assert!(chrome.contains("\"ts\":73000"));
    }

    #[test]
    fn json_escape_handles_specials() {
        let json_escape = |s: &str| {
            let mut out = String::new();
            super::push_json_str(&mut out, s);
            out
        };
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prom_label_escape_handles_hostile_class_name() {
        // A workload class named by someone who read the exposition spec
        // and wants to break it: quotes, backslashes, and a newline.
        let hostile = "batch\"tier\\0\npwned";
        let escaped = super::prom_label_escape(hostile);
        assert_eq!(escaped, "batch\\\"tier\\\\0\\npwned");
        // Embedded in a label, the line stays a single line with balanced
        // quotes.
        let line = format!("mercurial_class_ops{{class=\"{escaped}\"}} 1");
        assert_eq!(line.lines().count(), 1);
        assert!(!line.contains('\n'));
        let unescaped_quotes = line.matches('"').count() - line.matches("\\\"").count();
        assert_eq!(unescaped_quotes, 2, "only the delimiter quotes survive");
        // Tame values pass through untouched.
        assert_eq!(super::prom_label_escape("web-frontend"), "web-frontend");
    }

    #[test]
    fn empty_trace_exports_are_empty_but_wellformed() {
        let t = Recorder::disabled().finish();
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.to_prometheus(), "");
        assert_eq!(t.to_chrome_trace(), "{\"traceEvents\":[\n]}\n");
    }
}

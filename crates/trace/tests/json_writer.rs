//! Byte identity of the JSON writers: `push_num` must write what
//! `format!("{v}")` writes for every finite value, and `0` for the rest,
//! because the trace, ledger and case-book exports are pinned by digest.
//! The integer and string writers, and the Chrome export built on them,
//! are checked the same way.

use mercurial_trace::export::{push_json_str, push_num, push_u64};
use mercurial_trace::{Recorder, TraceFlags};

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
    let mut r = Recorder::with_flags(TraceFlags::enabled());
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

//! E7 — §3/§7: the cost of tolerance.
//!
//! "Detecting CEEs … naively seems to imply a factor of two of extra work.
//! Automatic correction seems to possibly require triple work (e.g. via
//! triple modular redundancy)." And §3's amortization argument: storage
//! and networking tolerate low-level errors cheaply because they checksum
//! *large chunks*, which "seems harder to do at a per-instruction scale".
//!
//! Each group's arms are timed by the shared sampler
//! ([`mercurial_bench::interleave`]) over [`SAMPLES`] rounds, each round
//! timing every arm once from a rotating first arm, so host drift lands
//! on all arms alike. Each arm prints its median, min and max per
//! iteration and the median over rounds of its ratio to the group's
//! first arm; the medians and ratios are written to
//! `BENCH_overheads.json`.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e7_overheads
//! ```

use mercurial_corpus::aes::{Aes, KeySize};
use mercurial_corpus::crc::{CrcTable, POLY_CRC32C};
use mercurial_corpus::hash::SipHash24;
use mercurial_corpus::lz;
use mercurial_mitigation::{
    checked_compress, checked_copy, cross_checked_encrypt, dmr, tmr, CostMeter,
};
use mercurial_prof::Prof;
use std::hint::black_box;

/// Timed samples per arm.
const SAMPLES: usize = 21;

/// Microseconds per call.
const US: (&str, f64) = ("us/call", 1e6);

/// Nanoseconds per KiB, for arms that each process 1 MiB.
const NS_PER_KIB: (&str, f64) = ("ns/KiB", 1e9 / 1024.0);

type Routine<'a> = Box<dyn FnMut() + 'a>;

/// A named arm whose result is passed through [`black_box`].
fn arm<'a, T>(name: &'static str, mut f: impl FnMut() -> T + 'a) -> (&'static str, Routine<'a>) {
    (name, Box::new(move || drop(black_box(f()))))
}

/// Samples `arms` as rounds of `iters` calls each, prints the group and
/// returns it as one `"name": {…}` member of the bench body. Seconds per
/// call are multiplied by the unit's scale; an arm's ratio is to the
/// group's first arm.
fn measure(
    prof: &Prof,
    name: &'static str,
    (unit, scale): (&'static str, f64),
    iters: u32,
    mut arms: Vec<(&'static str, Routine<'_>)>,
) -> String {
    let _phase = prof.span(name);
    let mut looped: Vec<_> = (arms.iter_mut())
        .map(|(arm, routine)| (*arm, move || (0..iters).for_each(|_| routine())))
        .collect();
    let mut sampled: Vec<mercurial_bench::Arm> = (looped.iter_mut())
        .map(|(arm, f)| (*arm, f as &mut dyn FnMut()))
        .collect();
    let rounds = mercurial_bench::interleave(prof, SAMPLES, &mut sampled);
    println!("\n{name} ({unit}, median [min max] of {SAMPLES} samples):");
    let per_call = scale / f64::from(iters);
    let members: Vec<String> = (looped.iter().enumerate())
        .map(|(i, &(arm, _))| {
            let s = rounds.spread(i);
            let [median, min, max] = [s.median, s.min, s.max].map(|x| x * per_call);
            let ratio = rounds.ratio(i, 0);
            println!("  {arm:<28} {median:>10.2}  [{min:>10.2} {max:>10.2}]   {ratio:.2}x");
            format!(
                "\"{arm}\": {{\"median\": {median:.4}, \"min\": {min:.4}, \"max\": {max:.4}, \"ratio\": {ratio:.4}}}"
            )
        })
        .collect();
    format!(
        "\"{name}\": {{\n    \"unit\": \"{unit}\",\n    {}\n  }}",
        members.join(",\n    ")
    )
}

fn main() {
    mercurial_bench::header("E7 — mitigation overheads: ≈2x detect, ≈3x correct, amortization");
    let prof = Prof::enabled();
    let mut groups = Vec::new();

    // Redundant execution of a healthy compute-heavy kernel.
    let work = |_core: usize| -> u64 {
        let mut acc = 0xabcdefu64;
        for i in 0..40_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            acc ^= acc >> 29;
        }
        acc
    };
    let healthy = "a healthy kernel agrees with itself";
    groups.push(measure(
        &prof,
        "redundancy",
        US,
        10,
        vec![
            arm("raw", || work(black_box(0))),
            arm("dmr", || {
                dmr(work, 1, &mut CostMeter::default()).expect(healthy)
            }),
            arm("tmr", || {
                tmr(work, &mut CostMeter::default()).expect(healthy)
            }),
        ],
    ));
    println!("  (paper: detection 'a factor of two of extra work', correction 'triple work')");

    // Self-checking libraries (§7).
    let key = [7u8; 16];
    let aes = Aes::new(KeySize::Aes128, &key).expect("16-byte key");
    let block = *b"0123456789abcdef";
    let reference = |b| mercurial_simcpu::crypto::aes128_encrypt_block(key, b);
    groups.push(measure(
        &prof,
        "selfcheck-aes",
        US,
        5000,
        vec![
            arm("encrypt-raw", || aes.encrypt_block(black_box(block))),
            arm("encrypt-roundtrip-checked", || {
                aes.decrypt_block(aes.encrypt_block(black_box(block)))
            }),
            arm("encrypt-cross-checked", || {
                cross_checked_encrypt(black_box(block), |b| aes.encrypt_block(b), reference)
                    .expect(healthy)
            }),
        ],
    ));

    let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    groups.push(measure(
        &prof,
        "selfcheck-compress",
        US,
        2,
        vec![
            arm("compress-raw", || lz::compress(black_box(&data))),
            arm("compress-checked", || {
                checked_compress(black_box(&data)).expect(healthy)
            }),
        ],
    ));

    let src: Vec<u8> = (0..256 * 1024u32).map(|i| i as u8).collect();
    let (mut raw_dst, mut checked_dst) = (vec![0u8; src.len()], vec![0u8; src.len()]);
    let copy = |d: &mut [u8], s: &[u8]| d.copy_from_slice(s);
    groups.push(measure(
        &prof,
        "selfcheck-copy",
        US,
        10,
        vec![
            arm("copy-raw", || {
                copy(&mut raw_dst, black_box(&src));
                black_box(&raw_dst);
            }),
            arm("copy-checked", || {
                checked_copy(&mut checked_dst, black_box(&src), copy).expect(healthy)
            }),
        ],
    ));

    // §3 amortization: a *protocol* check costs a fixed part per chunk
    // (header digest, metadata update, comparison, bookkeeping) plus a
    // marginal part per byte (the CRC itself). Larger chunks spread the
    // fixed part — that is the storage/network advantage the paper
    // contrasts with per-instruction checking, which has no chunk to grow.
    // Each arm checks 1 MiB of payload in chunks of its size.
    let sip = SipHash24::new(0x1234, 0x5678);
    let table = CrcTable::new(POLY_CRC32C);
    let chunk_arms = [
        ("64", 64usize),
        ("512", 512),
        ("4096", 4096),
        ("65536", 65536),
    ]
    .map(|(name, chunk)| {
        let mut buf: Vec<u8> = (0..chunk as u32).map(|i| i as u8).collect();
        let mut header = [0x5au8; 64];
        let (sip, table) = (&sip, &table);
        arm(name, move || {
            let mut acc = 0u64;
            for i in 0..(1 << 20) / chunk {
                // Touch the inputs each chunk so the pure functions
                // cannot be hoisted out of the timing loop.
                buf[0] = i as u8;
                header[0] = i as u8;
                acc ^= sip.hash(&header) ^ u64::from(table.crc_slice8(&buf));
            }
            acc
        })
    });
    groups.push(measure(
        &prof,
        "checked-chunk-protocol",
        NS_PER_KIB,
        2,
        chunk_arms.into(),
    ));
    println!("\npaper §3: 'storage and networking … typically operate on relatively large");
    println!("chunks of data … this allows corruption-checking costs to be amortized, which");
    println!("seems harder to do at a per-instruction scale' — the fixed per-chunk cost");
    println!("washes out as chunks grow, while DMR/TMR (the per-instruction analogue)");
    println!("stay pinned at 2x/3x no matter the granularity.");

    let body = format!("\"samples\": {SAMPLES},\n  {}", groups.join(",\n  "));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overheads.json");
    mercurial_bench::write_bench_json(path, "e7_overheads", SAMPLES as u64, &prof.finish(), &body);
    println!("\nbaseline written to BENCH_overheads.json");
}

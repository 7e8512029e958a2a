//! Bench: `fleet::par::map_parallel`, the across-run fan-out behind
//! `PipelineRun::execute_many`, `FleetExperiment::build_many` and the fuzz
//! campaign (a single simulation run is single-threaded). Two
//! measurements:
//!
//! * the bare fan-out overhead — `map_parallel` over batch-sized item
//!   counts with a trivial body, against the serial loop;
//! * a skew probe — items whose costs differ 100× tail-to-head, the
//!   case a work-stealing deque would help (the atomic-cursor claim in
//!   `map_parallel` already balances these dynamically).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mercurial_fleet::par::map_parallel;
use std::hint::black_box;

fn bench_fanout_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("par-map-overhead");
    for items in [8usize, 32, 180] {
        let ids: Vec<u32> = (0..items as u32).collect();
        group.bench_with_input(BenchmarkId::new("serial", items), &ids, |b, ids| {
            b.iter(|| {
                let out: Vec<u64> = ids.iter().map(|&i| black_box(i as u64 + 1)).collect();
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("fanout-8", items), &ids, |b, ids| {
            b.iter(|| black_box(map_parallel(ids, 8, |&i| black_box(i as u64 + 1))))
        });
    }
    group.finish();
}

fn bench_skewed_items(c: &mut Criterion) {
    // Cost ratio ~100:1 between the heaviest and lightest item, heavy
    // items first — the adversarial layout for fixed chunking, the
    // benign one for a dynamic cursor.
    let weights: Vec<u64> = (0..32u64).map(|i| 1_000 * (32 - i) * (32 - i)).collect();
    let spin = |n: &u64| {
        let mut acc = 0u64;
        for i in 0..*n {
            acc = acc.wrapping_mul(0x9E37).wrapping_add(i);
        }
        acc
    };
    let mut group = c.benchmark_group("par-map-skew");
    group.bench_function("serial", |b| {
        b.iter(|| {
            let out: Vec<u64> = weights.iter().map(spin).collect();
            black_box(out)
        })
    });
    group.bench_function("fanout-8", |b| {
        b.iter(|| black_box(map_parallel(&weights, 8, spin)))
    });
    group.finish();
}

criterion_group!(benches, bench_fanout_overhead, bench_skewed_items);
criterion_main!(benches);

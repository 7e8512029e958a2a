//! Bench: simulator speed — instructions per second on healthy vs
//! mercurial cores, one full corpus screen, and one fleet-month.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mercurial_fault::{library, Injector};
use mercurial_fleet::sim::SimConfig;
use mercurial_fleet::topology::{FleetConfig, FleetTopology};
use mercurial_fleet::{FleetSim, Population};
use mercurial_screening::chipscreen::ChipScreen;
use mercurial_simcpu::{assemble, CoreConfig, Memory, SimCore};
use std::hint::black_box;

fn bench_interpreter(c: &mut Criterion) {
    let prog = assemble(
        "li x1, 0
         li x2, 20000
         loop:
         add x1, x1, x2
         xor x1, x1, x2
         rotli x1, x1, 5
         mul x3, x1, x2
         addi x2, x2, -1
         bnz x2, loop
         out x1
         halt",
    )
    .unwrap();
    // ~6 instructions per iteration x 20k iterations.
    let mut group = c.benchmark_group("simcpu-interpreter");
    group.throughput(Throughput::Elements(120_000));
    group.bench_function("healthy-core", |b| {
        b.iter(|| {
            let mut core = SimCore::new(CoreConfig::default(), None);
            let mut mem = Memory::new(4096);
            core.run(&prog, &mut mem).unwrap();
            black_box(core.output()[0])
        })
    });
    group.bench_function("mercurial-core", |b| {
        b.iter(|| {
            let mut core = SimCore::new(
                CoreConfig::default(),
                Some(Injector::new(7, library::string_bitflip(9, 1e-6))),
            );
            let mut mem = Memory::new(4096);
            core.run(&prog, &mut mem).unwrap();
            black_box(core.output()[0])
        })
    });
    group.finish();
}

fn bench_chip_screen(c: &mut Criterion) {
    let screen = ChipScreen::new(1);
    c.bench_function("full-corpus-screen-healthy-core", |b| {
        b.iter(|| {
            let mut core = SimCore::new(CoreConfig::default(), None);
            black_box(screen.screen(&mut core).failed())
        })
    });
}

fn bench_fleet_month(c: &mut Criterion) {
    let mut cfg = FleetConfig::tiny(1000, 9);
    cfg.rollout_months = 0;
    let topo = FleetTopology::build(cfg);
    let pop = Population::seed_from(&topo);
    c.bench_function("fleet-1000-machines-1-month", |b| {
        b.iter(|| {
            let sim = FleetSim::new(
                topo.clone(),
                pop.clone(),
                SimConfig {
                    months: 1,
                    ..SimConfig::default()
                },
            );
            black_box(sim.run().1)
        })
    });
}

/// A single-CPU-friendly Criterion config: fewer samples, shorter
/// measurement windows (the ratios, not the absolute precision, are
/// what the experiments report).
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_interpreter,
    bench_chip_screen,
    bench_fleet_month
);
criterion_main!(benches);

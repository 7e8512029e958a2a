//! At fleet-study scale the per-machine columns are most of what a run
//! keeps: a machine's product, deploy hour, deploy-order slot and
//! workload class, one byte or eight each, stored once. This test pins
//! that footprint with a global allocator that tracks the live heap
//! bytes (allocated minus freed) on the measuring thread and their
//! high-water mark: a second copy of a fact shows up in the kept bytes,
//! and a wider sort transient in the peak.
//!
//! Counting is gated on a thread-local flag so only the measuring
//! thread's allocations register: the test harness spawns threads and
//! reports results concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

use mercurial_fleet::topology::{FleetConfig, FleetTopology};
use mercurial_fleet::{FleetSim, Population, SimConfig};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn track(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            track(layout.size() as isize);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            track(-(layout.size() as isize));
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            track(new_size as isize - layout.size() as isize);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Runs `f` and returns the live bytes this thread still holds from
/// inside it and their high-water mark, with `f`'s result.
fn live_and_peak_bytes_during<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let live = LIVE.load(Ordering::Relaxed) as usize;
    (live, PEAK.load(Ordering::Relaxed) as usize, out)
}

#[test]
fn topology_and_classes_keep_14_bytes_a_machine() {
    let machines = 100_000usize;
    let mut config = FleetConfig::default_fleet();
    config.machines = machines as u32;
    let seed = config.seed;
    let (kept, peak, sim) = live_and_peak_bytes_during(|| {
        let topo = FleetTopology::build(config);
        // No mercurial cores: the population's footprint is per defect,
        // not per machine.
        let pop = Population::with_explicit(seed, Vec::new());
        FleetSim::new(topo, pop, SimConfig::default())
    });
    assert_eq!(sim.topology().machine_count() as usize, machines);
    assert_eq!(sim.topology().column_bytes(), machines * 13);
    // The catalog and the workload mix: names, curves, operand lists.
    let constant = 16 * 1024;
    let per_machine = kept as f64 / machines as f64;
    assert!(
        kept <= 14 * machines + constant,
        "the build keeps {kept} live bytes ({per_machine:.2} a machine)"
    );
    assert!(
        peak <= kept + 16 * machines,
        "the build peaked at {peak} live bytes, keeping {kept}"
    );
}

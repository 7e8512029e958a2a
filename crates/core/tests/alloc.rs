//! A shard borrows the experiment's one simulator: building a worker
//! must not copy the topology, re-seed the population or redraw the
//! workload classes. This test pins that with a global allocator that
//! records the largest single allocation made on the measuring thread:
//! no allocation in `FleetShard::new` may reach the size of the
//! topology's widest column, the deploy hours at 8 bytes a machine. The
//! shard's own per-machine state (deployed-machine and hot-machine
//! bitmaps, a bit a machine; the burn-in campaign walks the topology's
//! deploy order in place) stays far below it. The aggregator, the
//! central half, keeps no per-machine table at all: no allocation in
//! `FleetAggregator::new` reaches one byte a machine (the capacity
//! ledger reads a machine's core count from the topology).
//!
//! Counting is gated on a thread-local flag so only the measuring
//! thread's allocations register: the test harness spawns threads and
//! reports results concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mercurial::{FleetAggregator, FleetExperiment, FleetShard, Scenario};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result with the size in bytes of the largest
/// allocation this thread made inside it.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn shard_new_borrows_the_simulator_instead_of_copying_the_fleet() {
    let mut scenario = Scenario::small(5);
    scenario.fleet.machines = 100_000;
    let experiment = FleetExperiment::build(&scenario);
    let machines = scenario.fleet.machines;
    let table = std::mem::size_of_val(experiment.topology().deploy_hours_by_machine());
    assert_eq!(table, machines as usize * 8);
    let (shard, largest) =
        largest_allocation_during(|| FleetShard::new(&scenario, &experiment, 0, machines));
    assert_eq!(shard.machine_range(), (0, machines));
    assert!(
        largest < table,
        "FleetShard::new made a {largest}-byte allocation; the deploy-hour column is {table} bytes"
    );
}

#[test]
fn aggregator_new_keeps_no_per_machine_table() {
    let mut scenario = Scenario::small(5);
    scenario.fleet.machines = 100_000;
    let experiment = FleetExperiment::build(&scenario);
    let machines = scenario.fleet.machines as usize;
    let (aggregator, largest) =
        largest_allocation_during(|| FleetAggregator::new(&scenario, &experiment, None));
    drop(aggregator);
    assert!(
        largest < machines,
        "FleetAggregator::new made a {largest}-byte allocation for {machines} machines"
    );
}

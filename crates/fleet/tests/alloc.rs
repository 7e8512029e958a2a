//! Stepping an epoch must cost work proportional to what changed, not to
//! the fleet: the deployed set is carried across epochs, so no epoch
//! allocates a table sized by the deployed fleet. This test pins that
//! cost class with a global allocator that records the largest single
//! allocation made on the measuring thread.
//!
//! Counting is gated on a thread-local flag so only the measuring
//! thread's allocations register: the test harness spawns threads and
//! reports results concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mercurial_fault::{library, CoreUid};
use mercurial_fleet::topology::{FleetConfig, FleetTopology};
use mercurial_fleet::{CpuProduct, FleetSim, Population, SignalLog, SimConfig, SimSummary};
use mercurial_trace::Recorder;

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

/// Runs `f` and returns the size in bytes of the largest allocation this
/// thread made inside it.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn mid_rollout_epochs_allocate_nothing_fleet_sized() {
    let machines = 100_000;
    let topo = FleetTopology::build(FleetConfig {
        machines,
        sockets_per_machine: 2,
        products: CpuProduct::default_catalog(),
        rollout_months: 12,
        seed: 5,
    });
    let defects = (0..20)
        .map(|i| {
            (
                CoreUid::new(i * 4_999, 0, 1),
                library::string_bitflip(9, 1e-5),
            )
        })
        .collect();
    let pop = Population::with_explicit(5, defects);
    let sim = FleetSim::new(
        topo,
        pop,
        SimConfig {
            months: 12,
            ..SimConfig::default()
        },
    );
    let mut state = sim.begin();
    let mut summary = SimSummary::default();
    let rec = &mut Recorder::disabled();
    // Half way through the rollout.
    let half = state.total_epochs() / 2;
    sim.step_epochs(&mut state, half, &mut SignalLog::new(), &mut summary, rec);
    let deployed = sim.topology().deployed_count(state.hour()) as usize;
    assert!(
        deployed > machines as usize / 4 && deployed < machines as usize * 3 / 4,
        "{deployed} deployed: the fleet must be mid-rollout"
    );
    let mut log = SignalLog::with_capacity(1 << 14);
    let largest = largest_allocation_during(|| {
        for _ in 0..10 {
            assert!(sim.step_epoch(&mut state, &mut log, &mut summary, rec));
        }
    });
    assert!(!log.is_empty(), "the measured epochs must emit signals");
    assert!(
        largest < deployed,
        "an epoch made a {largest}-byte allocation with {deployed} machines deployed"
    );
}

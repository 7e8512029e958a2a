//! The disabled profiler's contract is "one branch, zero allocation":
//! instrumented hot loops must pay nothing when profiling is off. This
//! test pins that with a counting global allocator — if a disabled
//! `span()` ever allocates, the count moves and the assertion names it.
//!
//! Counting is gated on a thread-local flag so only the measuring
//! thread's allocations register: the test harness spawns threads and
//! reports results concurrently, and its allocations on other threads
//! are not the profiler's doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted, returning how many
/// happened inside.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    after - before
}

#[test]
fn disabled_spans_never_allocate() {
    let prof = mercurial_prof::Prof::disabled();
    // Warm anything lazy in the harness path before sampling.
    {
        let _g = prof.span("warmup");
    }
    let allocated = allocations_during(|| {
        for _ in 0..100_000 {
            let _outer = prof.span("epoch");
            let _inner = prof.span("sim");
        }
    });
    assert_eq!(
        allocated, 0,
        "disabled profiler allocated {allocated} times across 100k span pairs"
    );
}

#[test]
fn enabled_spans_stop_allocating_once_the_tree_exists() {
    // Steady state for an *enabled* profiler: revisiting known phases
    // re-uses nodes; only first-visit creates them. Not part of the
    // zero-cost contract, but a regression here would silently tax every
    // epoch of a profiled run.
    let prof = mercurial_prof::Prof::enabled();
    for _ in 0..16 {
        let _outer = prof.span("epoch");
        let _inner = prof.span("sim");
    }
    let allocated = allocations_during(|| {
        for _ in 0..10_000 {
            let _outer = prof.span("epoch");
            let _inner = prof.span("sim");
        }
    });
    assert_eq!(
        allocated, 0,
        "enabled profiler allocated {allocated} times revisiting known phases"
    );
}

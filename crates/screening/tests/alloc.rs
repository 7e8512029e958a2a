//! At fleet-study scale almost every signal accuses a core never seen
//! before, so the scoreboard's memory is its per-core footprint times
//! the accused cores. This test pins that footprint with a global
//! allocator that tracks the live heap bytes (allocated minus freed) on
//! the measuring thread and their high-water mark: a growing table that
//! rehashes or a slab that reallocates shows up as a peak well above the
//! rows it holds.
//!
//! Counting is gated on a thread-local flag so only the measuring
//! thread's allocations register: the test harness spawns threads and
//! reports results concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

use mercurial_fault::CoreUid;
use mercurial_fleet::{Signal, SignalKind};
use mercurial_screening::Scoreboard;
use mercurial_trace::Recorder;

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

/// Runs `f` and returns the high-water mark of the live bytes this
/// thread allocated inside it, with `f`'s result.
fn peak_live_bytes_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (PEAK.load(Ordering::Relaxed) as usize, out)
}

#[test]
fn distinct_cores_cost_at_most_48_bytes_each_at_peak() {
    let cores = 300_000u32;
    // One noise signal per core, spread the way fleet noise is: a random
    // core of a random machine, never the same core twice.
    let signals: Vec<Signal> = (0..cores)
        .map(|i| Signal {
            hour: f64::from(i) * 0.01,
            core: CoreUid::new(
                i.wrapping_mul(2_654_435_761) >> 2,
                (i % 2) as u8,
                (i % 31) as u16,
            ),
            kind: SignalKind::UserReport,
            caused_by_cee: false,
        })
        .collect();
    let rec = &mut Recorder::disabled();
    let (peak, board) = peak_live_bytes_during(|| {
        let mut board = Scoreboard::new();
        board.ingest_all(&signals, rec);
        board
    });
    assert_eq!(board.cores_seen(), cores as usize, "every core distinct");
    let per_core = peak as f64 / f64::from(cores);
    assert!(
        per_core <= 48.0,
        "ingesting {cores} distinct cores peaked at {peak} live bytes ({per_core:.1} per core)"
    );
}

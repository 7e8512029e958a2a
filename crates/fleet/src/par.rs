//! Deterministic fan-out over independent runs.
//!
//! A simulation run is single-threaded; parallelism lives *across* runs
//! (many scenarios or seeds, fuzz programs). Each run's randomness is a
//! pure function of its own `(seed, stream, counter)` draws — see
//! `mercurial-fault`'s `CounterRng` — so runs can execute on any thread
//! in any order. What thread-count independence requires is that
//! *merging* ignore completion order. [`map_parallel`] guarantees that:
//! results land in input order, so the output is bit-for-bit the same for
//! any worker count, including one.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `parallelism` knob to a concrete worker count: `0` means
/// "one worker per available CPU", any other value is taken literally.
pub fn resolve_parallelism(parallelism: usize) -> usize {
    match parallelism {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Applies `f` to every item, fanning out across up to `parallelism`
/// worker threads (`0` = one per CPU), and returns the results in input
/// order.
///
/// Items are claimed dynamically (an atomic cursor), so uneven item costs
/// balance across workers; because each result is stored at its item's
/// index, the output is independent of scheduling. With one worker (or
/// one item) no threads are spawned.
///
/// # Panics
///
/// Propagates a panic from `f` (the first worker that panicked).
pub fn map_parallel<T, R, F>(items: &[T], parallelism: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = resolve_parallelism(parallelism).min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return produced;
                        }
                        produced.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("fan-out worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for parallelism in [1, 2, 3, 8] {
            let got = map_parallel(&items, parallelism, |&x| x * x);
            assert_eq!(got, expect, "parallelism {parallelism}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = vec![];
        assert!(map_parallel(&none, 4, |&x| x).is_empty());
        assert_eq!(map_parallel(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_means_available_cpus() {
        assert!(resolve_parallelism(0) >= 1);
        assert_eq!(resolve_parallelism(3), 3);
    }
}

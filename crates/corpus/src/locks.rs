//! Locking torture kernels ("locking" in the corpus list).
//!
//! §2's first concrete CEE example is "violations of lock semantics leading
//! to application data corruption and crashes". This module provides
//! from-scratch spin and ticket locks, a torture harness that checks the
//! lock actually provided mutual exclusion, and a *faulty* CAS shim that
//! reproduces the phantom-success defect natively so mitigation code can be
//! tested against it without the simulator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A test-and-set spinlock.
#[derive(Debug, Default)]
pub struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    /// Creates an unlocked lock.
    pub fn new() -> SpinLock {
        SpinLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquires the lock, spinning.
    pub fn lock(&self) {
        while self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Yield rather than burn: on a single-CPU host a pure spin
            // wastes a whole scheduler quantum per contended acquisition.
            std::thread::yield_now();
        }
    }

    /// Releases the lock.
    ///
    /// Callers must hold the lock; this is not enforced (it is a corpus
    /// kernel, not a production mutex).
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// A fair ticket lock.
#[derive(Debug, Default)]
pub struct TicketLock {
    next: AtomicU64,
    serving: AtomicU64,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub fn new() -> TicketLock {
        TicketLock {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
        }
    }

    /// Acquires the lock, spinning on the caller's ticket.
    pub fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        while self.serving.load(Ordering::Acquire) != ticket {
            std::thread::yield_now();
        }
    }

    /// Releases the lock.
    pub fn unlock(&self) {
        self.serving.fetch_add(1, Ordering::Release);
    }
}

/// Result of one torture run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TortureReport {
    /// Expected final counter value (threads × iterations).
    pub expected: u64,
    /// Observed final counter value.
    pub observed: u64,
    /// How many times two threads were caught inside the critical section
    /// simultaneously.
    pub exclusion_violations: u64,
}

impl TortureReport {
    /// Whether the lock behaved.
    pub fn passed(&self) -> bool {
        self.expected == self.observed && self.exclusion_violations == 0
    }
}

/// Runs a mutual-exclusion torture test over a caller-provided lock.
///
/// `lock_ops` receives `(acquire, release)` closures via a trait object so
/// both lock types (and faulty shims) share one harness. The critical
/// section does a deliberately racy read-modify-write; only true mutual
/// exclusion keeps the counter exact.
pub fn torture<L>(lock: Arc<L>, threads: usize, iters: u64) -> TortureReport
where
    L: LockLike + Send + Sync + 'static,
{
    let counter = Arc::new(RacyCounter::default());
    let inside = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..threads {
        let lock = Arc::clone(&lock);
        let counter = Arc::clone(&counter);
        let inside = Arc::clone(&inside);
        let violations = Arc::clone(&violations);
        handles.push(std::thread::spawn(move || {
            for _ in 0..iters {
                lock.acquire();
                if inside.fetch_add(1, Ordering::SeqCst) != 0 {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
                counter.racy_increment();
                inside.fetch_sub(1, Ordering::SeqCst);
                lock.release();
            }
        }));
    }
    for h in handles {
        h.join().expect("torture thread panicked");
    }
    TortureReport {
        expected: threads as u64 * iters,
        observed: counter.load(),
        exclusion_violations: violations.load(Ordering::Relaxed),
    }
}

/// The lock interface the torture harness drives.
pub trait LockLike {
    /// Acquires the lock.
    fn acquire(&self);
    /// Releases the lock.
    fn release(&self);
}

impl LockLike for SpinLock {
    fn acquire(&self) {
        self.lock();
    }
    fn release(&self) {
        self.unlock();
    }
}

impl LockLike for TicketLock {
    fn acquire(&self) {
        self.lock();
    }
    fn release(&self) {
        self.unlock();
    }
}

/// The reference lock: a std [`Mutex`] guarding a `locked` flag, with a
/// [`Condvar`] to park waiters. Unlike a raw mutex guard, the flag can be
/// released by a separate call, which is the shape the harness drives.
#[derive(Debug, Default)]
pub struct StdLock {
    locked: Mutex<bool>,
    freed: Condvar,
}

impl LockLike for StdLock {
    fn acquire(&self) {
        let mut locked = self.locked.lock().expect("lock flag poisoned");
        while *locked {
            locked = self.freed.wait(locked).expect("lock flag poisoned");
        }
        *locked = true;
    }
    fn release(&self) {
        *self.locked.lock().expect("lock flag poisoned") = false;
        self.freed.notify_one();
    }
}

/// A counter whose increment is deliberately *not* atomic: load, spin a
/// little, store. Exposes lost updates the instant mutual exclusion fails.
#[derive(Debug, Default)]
pub struct RacyCounter {
    value: AtomicU64,
}

impl RacyCounter {
    fn racy_increment(&self) {
        let v = self.value.load(Ordering::Relaxed);
        // Yield inside the window so that a mutual-exclusion violation is
        // observable even on a single-CPU host: if another thread is
        // (wrongly) inside the critical section, it gets scheduled here and
        // one of the increments is lost. Under a correct lock no other
        // thread can be inside, so the yield is harmless.
        std::thread::yield_now();
        self.value.store(v + 1, Ordering::Relaxed);
    }

    fn load(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A spinlock built on a *defective* CAS: with period `lie_period`, an
/// acquisition attempt reports success without actually taking the lock —
/// the phantom-success lesion, natively.
#[derive(Debug)]
pub struct FaultySpinLock {
    locked: AtomicBool,
    attempts: AtomicU64,
    lie_period: u64,
}

impl FaultySpinLock {
    /// Creates a lock that lies on every `lie_period`-th acquisition.
    ///
    /// # Panics
    ///
    /// Panics if `lie_period == 0`.
    pub fn new(lie_period: u64) -> FaultySpinLock {
        assert!(lie_period > 0, "lie_period must be positive");
        FaultySpinLock {
            locked: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            lie_period,
        }
    }
}

impl LockLike for FaultySpinLock {
    fn acquire(&self) {
        loop {
            let n = self.attempts.fetch_add(1, Ordering::Relaxed);
            if n % self.lie_period == self.lie_period - 1 {
                // Phantom success: the caller proceeds, the lock is not
                // actually taken on its behalf.
                return;
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    fn release(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const THREADS: usize = 3;
    const ITERS: u64 = 3_000;

    #[test]
    fn spinlock_provides_exclusion() {
        let report = torture(Arc::new(SpinLock::new()), THREADS, ITERS);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn ticketlock_provides_exclusion() {
        let report = torture(Arc::new(TicketLock::new()), THREADS, ITERS);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn std_lock_provides_exclusion() {
        let report = torture(Arc::new(StdLock::default()), THREADS, ITERS);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn faulty_cas_loses_updates_or_violates_exclusion() {
        // The §2 lock-semantics CEE, natively: a lying CAS lets a second
        // thread into the critical section while the first really holds
        // the lock, and the racy counter drops an increment. Barriers force
        // that overlap rather than hoping the scheduler produces it. With
        // a lie every 2nd attempt, whichever attempt the holder's CAS
        // wins on, the intruder's next or next-but-one attempt lies.
        let lock = FaultySpinLock::new(2);
        let counter = RacyCounter::default();
        let inside = AtomicU64::new(0);
        let violations = AtomicU64::new(0);
        let (held, intruded) = (Barrier::new(2), Barrier::new(2));
        let enter = || {
            if inside.fetch_add(1, Ordering::SeqCst) != 0 {
                violations.fetch_add(1, Ordering::Relaxed);
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                lock.acquire();
                enter();
                // `racy_increment`, split open around the intruder's turn.
                let v = counter.value.load(Ordering::Relaxed);
                held.wait();
                intruded.wait();
                counter.value.store(v + 1, Ordering::Relaxed);
                inside.fetch_sub(1, Ordering::SeqCst);
                lock.release();
            });
            s.spawn(|| {
                held.wait();
                lock.acquire();
                enter();
                counter.racy_increment();
                inside.fetch_sub(1, Ordering::SeqCst);
                lock.release();
                intruded.wait();
            });
        });
        let report = TortureReport {
            expected: 2,
            observed: counter.load(),
            exclusion_violations: violations.load(Ordering::Relaxed),
        };
        assert!(
            !report.passed(),
            "a lock whose CAS lies must corrupt: {report:?}"
        );
        assert_eq!((report.observed, report.exclusion_violations), (1, 1));
    }

    #[test]
    fn single_thread_is_always_safe() {
        // Even the faulty lock is harmless without concurrency — CEEs need
        // the right workload to manifest (§2: "highly dependent on
        // workload").
        let report = torture(Arc::new(FaultySpinLock::new(3)), 1, 5_000);
        assert_eq!(report.observed, report.expected);
    }
}

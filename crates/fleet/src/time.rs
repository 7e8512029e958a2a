//! A minimal discrete-event engine: a time-ordered queue of typed events.
//!
//! Simulated time is `f64` hours from the start of the observation window.
//! Same-timestamp ties are broken by an explicit *kind rank* first (see
//! [`EventKind`]: restore before screening-due before deep-check, per the
//! DES ordering contract) and by insertion order last, so the simulation is
//! deterministic regardless of the order timers happened to be armed in.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The canonical event kinds of the fleet simulation, in tie-break order.
///
/// When several events share a timestamp they are delivered in this
/// order: a restored core re-enters service before the screening pass
/// that would otherwise skip it, and screens run before deep-check
/// verdicts land. [`EventKind::rank`] is the tie key
/// [`EventQueue::schedule_ranked`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A quarantined-then-exonerated core returns to service.
    Restore,
    /// A screening campaign (burn-in / offline / online) is due.
    ScreeningDue,
    /// A deep-check (human triage) verdict lands.
    DeepCheck,
}

impl EventKind {
    /// The tie-break rank: lower ranks pop first at equal timestamps.
    pub fn rank(self) -> u8 {
        match self {
            EventKind::Restore => 0,
            EventKind::ScreeningDue => 1,
            EventKind::DeepCheck => 2,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at_hours: f64,
    rank: u8,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.at_hours == other.at_hours && self.rank == other.rank && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // within a timestamp lowest-rank-first, then insertion order.
        other
            .at_hours
            .partial_cmp(&self.at_hours)
            .expect("event times are finite")
            .then(other.rank.cmp(&self.rank))
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of timestamped events.
///
/// # Examples
///
/// ```
/// use mercurial_fleet::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(5.0, "later");
/// q.schedule(1.0, "sooner");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((5.0, "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `at_hours` with the lowest (first-out) rank.
    ///
    /// # Panics
    ///
    /// Panics if `at_hours` is not finite.
    pub fn schedule(&mut self, at_hours: f64, payload: T) {
        self.schedule_ranked(at_hours, 0, payload);
    }

    /// Schedules `payload` at `at_hours` with an explicit same-timestamp
    /// tie rank (lower pops first; see [`EventKind::rank`]). Events with
    /// equal `(at_hours, rank)` pop in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `at_hours` is not finite.
    pub fn schedule_ranked(&mut self, at_hours: f64, rank: u8, payload: T) {
        assert!(at_hours.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at_hours,
            rank,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.at_hours, e.payload))
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `until_hours`.
    pub fn pop_due(&mut self, until_hours: f64) -> Option<(f64, T)> {
        if self.peek_time()? <= until_hours {
            self.pop()
        } else {
            None
        }
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at_hours)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn ties_break_by_rank_before_insertion_order() {
        // Scheduling order is deliberately adversarial: the highest rank
        // is armed first. Rank must win over seq.
        let mut q = EventQueue::new();
        q.schedule_ranked(5.0, EventKind::DeepCheck.rank(), "verdict");
        q.schedule_ranked(5.0, EventKind::ScreeningDue.rank(), "screen");
        q.schedule_ranked(5.0, EventKind::Restore.rank(), "restore");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["restore", "screen", "verdict"]);
    }

    #[test]
    fn rank_only_matters_at_equal_times() {
        let mut q = EventQueue::new();
        q.schedule_ranked(2.0, EventKind::Restore.rank(), "late-restore");
        q.schedule_ranked(1.0, EventKind::DeepCheck.rank(), "early-verdict");
        assert_eq!(q.pop().unwrap().1, "early-verdict");
        assert_eq!(q.pop().unwrap().1, "late-restore");
    }

    #[test]
    fn kind_ranks_follow_the_des_contract() {
        // Restore before screening-due before deep-check verdicts.
        assert!(EventKind::Restore.rank() < EventKind::ScreeningDue.rank());
        assert!(EventKind::ScreeningDue.rank() < EventKind::DeepCheck.rank());
    }

    #[test]
    fn pop_due_respects_the_cutoff() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "due");
        q.schedule(10.0, "future");
        assert_eq!(q.pop_due(5.0), Some((1.0, "due")));
        assert_eq!(q.pop_due(5.0), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(7.5, ());
        assert_eq!(q.peek_time(), Some(7.5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        EventQueue::new().schedule(f64::NAN, ());
    }
}

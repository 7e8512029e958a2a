//! A minimal discrete-event engine: a time-ordered queue of typed events.
//!
//! Simulated time is `f64` hours from the start of the observation window.
//! Same-timestamp ties break by insertion order, so the simulation is
//! deterministic. Each queue the lab keeps holds one kind of event.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<T> {
    at_hours: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.at_hours == other.at_hours && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // within a timestamp insertion order.
        other
            .at_hours
            .partial_cmp(&self.at_hours)
            .expect("event times are finite")
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

    /// Schedules `payload` at `at_hours`. Events with equal `at_hours`
    /// pop in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `at_hours` is not finite.
    pub fn schedule(&mut self, at_hours: f64, payload: T) {
        assert!(at_hours.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at_hours,
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

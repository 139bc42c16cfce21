//! Deterministic event queue.
//!
//! A thin wrapper over `BinaryHeap` that guarantees **stable FIFO order for
//! simultaneous events** via a monotonically increasing sequence number. This
//! is what makes two runs of the simulator with the same seed produce
//! identical schedules: ties at the same instant are broken by insertion
//! order, never by heap internals.
//!
//! There is no cancellation: a user that re-arms an event (the simulator,
//! when malleability moves a job's end) tags the payload with a generation
//! and drops a stale one when it pops, which keeps push/pop at `O(log n)`
//! with nothing else to consult.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a given instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub payload: E,
    seq: u64,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event first,
        // and among equal instants the lowest sequence number (FIFO).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic priority queue of simulation events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at `time`, after every event already scheduled
    /// for the same instant.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, payload, seq });
    }

    /// Next event instant, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event (FIFO among equal instants).
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// Snapshot for persistence: every entry as `(time, payload, seq)`
    /// in ascending `(time, seq)` order, plus the next sequence number.
    /// Sequence numbers are part of the snapshot because they break FIFO
    /// ties — restoring without them would reorder simultaneous events.
    pub fn snapshot(&self) -> (Vec<(SimTime, E, u64)>, u64)
    where
        E: Clone,
    {
        let mut entries: Vec<(SimTime, E, u64)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.payload.clone(), e.seq))
            .collect();
        entries.sort_by_key(|a| (a.0, a.2));
        (entries, self.next_seq)
    }

    /// Rebuilds a queue from a [`snapshot`](EventQueue::snapshot),
    /// preserving sequence numbers so tie order survives the round trip.
    pub fn from_snapshot(entries: Vec<(SimTime, E, u64)>, next_seq: u64) -> Self {
        let heap: BinaryHeap<ScheduledEvent<E>> = entries
            .into_iter()
            .map(|(time, payload, seq)| ScheduledEvent { time, payload, seq })
            .collect();
        EventQueue { heap, next_seq }
    }

    /// Drains every event in order (mostly for tests / teardown).
    pub fn drain_sorted(&mut self) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let order: Vec<_> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = q.drain_sorted().into_iter().map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 0);
        assert_eq!(q.pop().unwrap().payload, 0);
        q.push(SimTime(7), 2);
        q.push(SimTime(10), 3); // same time as payload 1, pushed later
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 3);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        q.push(SimTime(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty() && q.pop().is_none());
    }
}

//! Deterministic event queue.
//!
//! A priority queue that guarantees **stable FIFO order for simultaneous
//! events** via a monotonically increasing sequence number. This is what
//! makes two runs of the simulator with the same seed produce identical
//! schedules: ties at the same instant are broken by insertion order, never
//! by heap internals.
//!
//! The set is two halves: a sorted run (a `VecDeque`) and a `BinaryHeap`.
//! A push that sorts at or after the run's back is appended to the run; any
//! other goes to the heap, and a pop takes the smaller head by
//! `(time, seq)`. Keys are unique, so the pop order is exactly that of one
//! heap. An offline replay pushes its submits in trace order, so they all
//! land in the run and each pop walks a heap only as deep as the jobs
//! running at the time, not the whole future of the trace.
//!
//! There is no cancellation: a user that re-arms an event (the simulator,
//! when malleability moves a job's end) tags the payload with a generation
//! and drops a stale one when it pops, which keeps push/pop at `O(log n)`
//! with nothing else to consult.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event scheduled at a given instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub payload: E,
    seq: u64,
}

impl<E> ScheduledEvent<E> {
    /// The total order of the queue: time, then insertion order.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// Deterministic priority queue of simulation events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ascending by `(time, seq)`: every push that sorted at or after the
    /// back when it was made.
    run: VecDeque<ScheduledEvent<E>>,
    /// Everything else.
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

    /// A queue whose sorted run holds `cap` events without growing: one
    /// slot per job fits every submit of an offline replay.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            run: VecDeque::with_capacity(cap),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Schedules `payload` at `time`, after every event already scheduled
    /// for the same instant.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent { time, payload, seq });
    }

    /// Files an event in the run when it sorts after the run's back, in the
    /// heap otherwise. For a fresh push `seq` is the largest yet, so this is
    /// `back.time <= time`; a restored entry may come in any order.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        if self.run.back().is_none_or(|b| b.key() < ev.key()) {
            self.run.push_back(ev);
        } else {
            self.heap.push(ev);
        }
    }

    /// The earliest event's instant, and whether that event heads the heap
    /// rather than the run.
    fn head(&self) -> Option<(SimTime, bool)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) if h.key() < r.key() => Some((h.time, true)),
            (Some(r), _) => Some((r.time, false)),
            (None, h) => h.map(|h| (h.time, true)),
        }
    }

    fn take_head(&mut self, in_heap: bool) -> Option<ScheduledEvent<E>> {
        if in_heap {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }
    }

    /// Next event instant, without popping.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(t, _)| t)
    }

    /// Pops the earliest event (FIFO among equal instants).
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let (_, in_heap) = self.head()?;
        self.take_head(in_heap)
    }

    /// Pops the earliest event if it is scheduled at `t`: the inner loop of
    /// a batch that dispatches every event of one instant, at one head
    /// comparison per event.
    pub fn pop_at(&mut self, t: SimTime) -> Option<ScheduledEvent<E>> {
        let (time, in_heap) = self.head()?;
        if time != t {
            return None;
        }
        self.take_head(in_heap)
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
            .run
            .iter()
            .chain(self.heap.iter())
            .map(|e| (e.time, e.payload.clone(), e.seq))
            .collect();
        entries.sort_by_key(|a| (a.0, a.2));
        (entries, self.next_seq)
    }

    /// Rebuilds a queue from a [`snapshot`](EventQueue::snapshot),
    /// preserving sequence numbers so tie order survives the round trip.
    /// The entries may come in any order: each goes through the push rule
    /// with its own `seq`.
    pub fn from_snapshot(entries: Vec<(SimTime, E, u64)>, next_seq: u64) -> Self {
        let mut q = EventQueue::with_capacity(entries.len());
        for (time, payload, seq) in entries {
            q.insert(ScheduledEvent { time, payload, seq });
        }
        q.next_seq = next_seq;
        q
    }

    /// Drains every event in order (mostly for tests / teardown).
    pub fn drain_sorted(&mut self) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::with_capacity(self.len());
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
    fn a_shuffled_snapshot_restores_the_same_pops() {
        let mut q = EventQueue::new();
        for (i, t) in [40, 10, 10, 30, 20, 10, 50, 30, 20, 60].into_iter().enumerate() {
            q.push(SimTime(t), i);
        }
        q.pop();
        let (sorted, next_seq) = q.snapshot();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.swap(1, 5);
        shuffled.swap(0, 7);
        let pops = |entries| {
            let mut q = EventQueue::from_snapshot(entries, next_seq);
            q.push(SimTime(30), 99);
            q.drain_sorted().into_iter().map(|e| (e.time, e.payload)).collect::<Vec<_>>()
        };
        let want = pops(sorted);
        assert_eq!(pops(shuffled), want);
        let times: Vec<u64> = want.iter().map(|e| e.0.secs()).collect();
        assert_eq!(times, [10, 10, 20, 20, 30, 30, 30, 40, 50, 60]);
        assert_eq!(want[6], (SimTime(30), 99), "a fresh push follows the restored ties");
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

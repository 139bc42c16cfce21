//! The pending-job queue.
//!
//! SLURM's default priority is submit order (FIFO) within a partition; the
//! queue preserves that order exactly and supports the scheduler's pattern
//! of examining a bounded prefix and removing started jobs mid-scan.
//!
//! Every entry keeps the sequence number it was pushed at — its slot — and
//! an id → slot index makes removal O(1). A removed slot becomes a tombstone
//! (`None`), so a pass can walk the queue in place by sequence number
//! ([`PendingQueue::next_live`]) while it starts and removes jobs: nothing
//! moves mid-walk. Tombstones are compacted away at the next push once they
//! outnumber live entries, which keeps a walk O(live) amortised; FIFO order
//! is never disturbed.

use cluster::JobId;
use std::collections::HashMap;

/// One queued job with the dimensions the backfill loop needs, cached at
/// submit time so a scheduling pass reads them sequentially from the queue
/// instead of dereferencing the job table per examined job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    pub job: JobId,
    /// Whole nodes requested.
    pub req_nodes: u32,
    /// User-requested wall time (seconds).
    pub req_time: u64,
    /// Tenant registry slot, resolved once at submit time
    /// ([`crate::tenant::NO_TENANT_SLOT`] when unregistered/untenanted) so
    /// quota checks and fair-share ordering never hash in the hot loop.
    pub tslot: u32,
}

/// FIFO pending queue with stable order, O(1) prefix iteration and O(1)
/// (amortised) removal by id.
#[derive(Debug, Default, Clone)]
pub struct PendingQueue {
    /// Entries by sequence number, in arrival order; `None` marks a removed
    /// (tombstoned) job.
    slots: Vec<Option<QueueEntry>>,
    /// `slots[..front]` are all tombstones: the head is the first live slot
    /// at or after it.
    front: usize,
    /// job → its sequence number. Only point lookups — never iterated —
    /// so the hash map cannot introduce nondeterminism.
    index: HashMap<JobId, usize>,
    /// Removals and compactions so far: while it holds still, every
    /// sequence number names the entry it named before.
    edits: u64,
}

impl PendingQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Enqueues a newly submitted job at the tail. Compacts first when
    /// tombstones dominate; a push never happens inside a pass.
    pub fn push(&mut self, job: JobId, req_nodes: u32, req_time: u64, tslot: u32) {
        debug_assert!(!self.index.contains_key(&job), "{job} queued twice");
        if self.slots.len() > 2 * self.index.len().max(8) {
            self.compact();
        }
        self.index.insert(job, self.slots.len());
        self.slots.push(Some(QueueEntry {
            job,
            req_nodes,
            req_time,
            tslot,
        }));
    }

    /// Head of the queue (highest priority pending job).
    pub fn head(&self) -> Option<JobId> {
        // Leading tombstones are skipped on removal, so the front is live.
        self.slots.get(self.front).copied().flatten().map(|e| e.job)
    }

    /// The first `n` entries in priority order (allocation-free iterator).
    pub fn prefix(&self, n: usize) -> impl Iterator<Item = QueueEntry> + '_ {
        self.slots[self.front..].iter().copied().flatten().take(n)
    }

    /// The first live entry at sequence number `seq` or later, with its
    /// sequence number: one step of an in-place walk.
    #[inline]
    pub(crate) fn next_live(&self, seq: usize) -> Option<(usize, QueueEntry)> {
        let mut seq = seq.max(self.front);
        while let Some(&slot) = self.slots.get(seq) {
            if let Some(e) = slot {
                return Some((seq, e));
            }
            seq += 1;
        }
        None
    }

    /// How many removals and compactions the queue has seen: equal counts
    /// mean every sequence number still names the same entry.
    pub(crate) fn edits(&self) -> u64 {
        self.edits
    }

    /// Removes a job that was started (walk-safe: no slot moves, O(1)
    /// amortised).
    pub fn remove(&mut self, job: JobId) -> bool {
        let Some(seq) = self.index.remove(&job) else {
            return false;
        };
        debug_assert_eq!(self.slots[seq].map(|e| e.job), Some(job));
        self.slots[seq] = None;
        self.edits += 1;
        while let Some(None) = self.slots.get(self.front) {
            self.front += 1;
        }
        true
    }

    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.prefix(usize::MAX).map(|e| e.job)
    }

    /// Rebuilds the slots without tombstones (order preserved); every live
    /// entry gets a new sequence number.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.front = 0;
        self.edits += 1;
        for (seq, slot) in self.slots.iter().enumerate() {
            let job = slot.expect("compacted slots are live").job;
            self.index.insert(job, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.push(JobId(i), 1, 100, u32::MAX);
        }
        assert_eq!(q.head(), Some(JobId(0)));
        assert_eq!(q.prefix(3).map(|e| e.job).collect::<Vec<_>>(), vec![JobId(0), JobId(1), JobId(2)]);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn remove_keeps_relative_order() {
        let mut q = PendingQueue::new();
        for i in 0..5 {
            q.push(JobId(i), 1, 100, u32::MAX);
        }
        assert!(q.remove(JobId(2)));
        assert!(!q.remove(JobId(2)));
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            vec![JobId(0), JobId(1), JobId(3), JobId(4)]
        );
    }

    #[test]
    fn prefix_clamps_to_len() {
        let mut q = PendingQueue::new();
        q.push(JobId(9), 1, 100, u32::MAX);
        assert_eq!(q.prefix(100).map(|e| e.job).collect::<Vec<_>>(), vec![JobId(9)]);
        assert_eq!(PendingQueue::new().prefix(4).count(), 0);
    }

    #[test]
    fn head_skips_removed_jobs() {
        let mut q = PendingQueue::new();
        for i in 0..4 {
            q.push(JobId(i), 1, 100, u32::MAX);
        }
        q.remove(JobId(0));
        q.remove(JobId(1));
        assert_eq!(q.head(), Some(JobId(2)));
        assert_eq!(q.len(), 2);
        q.remove(JobId(2));
        q.remove(JobId(3));
        assert!(q.is_empty());
        assert_eq!(q.head(), None);
    }

    #[test]
    fn a_walk_in_place_survives_removals_and_compaction_waits_for_a_push() {
        let mut q = PendingQueue::new();
        for i in 0..20 {
            q.push(JobId(i), 1, 100, u32::MAX);
        }
        // Walk every entry, removing each even one as it is read.
        let (mut seen, mut seq) = (Vec::new(), 0);
        while let Some((at, e)) = q.next_live(seq) {
            seen.push(e.job.0);
            if e.job.0 % 2 == 0 {
                q.remove(e.job);
            }
            seq = at + 1;
        }
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(q.edits(), 10, "one edit per removal, no compaction");
        assert_eq!(q.next_live(0).map(|(at, e)| (at, e.job)), Some((1, JobId(1))));
        for i in (1..20).step_by(2).take(6) {
            q.remove(JobId(i));
        }
        // 20 slots for 4 live entries: the next push compacts, renumbering.
        q.push(JobId(20), 1, 100, u32::MAX);
        assert_eq!(q.edits(), 17);
        assert_eq!(q.next_live(0).map(|(at, e)| (at, e.job)), Some((0, JobId(13))));
        assert_eq!(q.iter().map(|j| j.0).collect::<Vec<_>>(), [13, 15, 17, 19, 20]);
    }

    #[test]
    fn interleaved_push_remove_matches_naive_model() {
        // Exercise tombstoning + compaction against a Vec model.
        let mut q = PendingQueue::new();
        let mut model: Vec<JobId> = Vec::new();
        let mut next = 0u64;
        for round in 0..200u64 {
            for _ in 0..(round % 4) + 1 {
                q.push(JobId(next), 1, 100, u32::MAX);
                model.push(JobId(next));
                next += 1;
            }
            // Remove a pseudo-random live entry (deterministic pattern).
            if !model.is_empty() && round % 3 != 0 {
                let victim = model[(round as usize * 7) % model.len()];
                assert!(q.remove(victim));
                model.retain(|&j| j != victim);
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.iter().collect::<Vec<_>>(), model);
            assert_eq!(q.head(), model.first().copied());
        }
    }
}

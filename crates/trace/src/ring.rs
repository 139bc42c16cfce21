//! The one seqlock ring (DESIGN.md §12): a bounded ring of fixed-width
//! records of `W` 64-bit words, serialised writers, any number of
//! lock-free readers. [`crate::TraceRing`] is the 4-word instance and
//! `sd_obs::LogRing` the 51-word one; both only pack and unpack words.
//!
//! Every word is an atomic, so concurrent tailing needs no `unsafe`. For
//! record index `i` a slot's stamp holds `2i + 1` while the writer is
//! mid-store and `2i + 2` once the payload is stable; a reader accepts a
//! slot only when the stable stamp for the exact index it wants brackets
//! the payload loads, so overwrites and in-flight writes read as
//! "dropped", never torn.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// The stamp a slot stably holding record `i` carries. Strictly increasing
/// across laps and never 0 (the empty-slot stamp) or odd (mid-write).
fn stable_stamp(i: u64) -> u64 {
    2 * i + 2
}

/// Bounded seqlock ring of `W`-word records. When the ring wraps, the
/// oldest records are overwritten; readers learn how many they missed via
/// [`Tail::dropped`].
pub struct SeqRing<const W: usize> {
    /// Records ever pushed; also the next record's sequence number.
    head: AtomicU64,
    /// Writer claim flag: a second writer spins (the write section is at
    /// most `W` relaxed stores) instead of interleaving slot updates.
    writing: AtomicBool,
    mask: u64,
    /// `capacity` slots of `1 + W` words each: the stamp, then the record.
    /// One flat zeroed allocation, so a large ring costs address space,
    /// not resident pages, until records land in it.
    cells: Box<[AtomicU64]>,
}

/// The result of tailing the ring from a cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tail<T> {
    pub items: Vec<T>,
    /// Pass this back as the next cursor to continue where this read ended.
    pub next: u64,
    /// Records between the cursor and `next` that were overwritten (or
    /// mid-overwrite) before they could be read.
    pub dropped: u64,
}

impl<const W: usize> SeqRing<W> {
    /// A ring of `capacity` slots, rounded up to a power of two.
    pub fn new(capacity: usize) -> SeqRing<W> {
        let cap = capacity.next_power_of_two();
        SeqRing {
            head: AtomicU64::new(0),
            writing: AtomicBool::new(false),
            mask: (cap - 1) as u64,
            cells: (0..cap * (1 + W)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// The stamp and the record words of the slot record `i` lands in.
    #[inline]
    fn slot(&self, i: u64) -> (&AtomicU64, &[AtomicU64]) {
        let at = (i & self.mask) as usize * (1 + W);
        self.cells[at..at + 1 + W].split_first().expect("a slot is 1 + W words")
    }

    /// Records ever pushed (== the cursor one past the newest record).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Append one record of at most `W` words; a shorter record leaves the
    /// slot's remaining words as they were. Readers tailing concurrently
    /// never block this.
    #[inline]
    pub fn push(&self, words: &[u64]) {
        assert!(words.len() <= W, "record wider than the ring's slots");
        while self
            .writing
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let i = self.head.load(Ordering::Relaxed);
        let (stamp, cells) = self.slot(i);
        // Seqlock write: odd stamp, full fence, payload, full fence, even
        // stamp. The fences give the store-store ordering the stamp
        // protocol needs on weakly-ordered targets.
        stamp.store(2 * i + 1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        for (cell, &w) in cells.iter().zip(words) {
            cell.store(w, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);
        stamp.store(stable_stamp(i), Ordering::Relaxed);
        self.head.store(i + 1, Ordering::Release);
        self.writing.store(false, Ordering::Release);
    }

    /// Read up to `limit` records starting at sequence number `cursor`,
    /// handing each stable record's index and words to `decode`. Records
    /// older than `head - capacity`, and records the writer lapped
    /// mid-read, are counted in [`Tail::dropped`], never returned torn or
    /// out of order.
    pub fn read_since<T>(
        &self,
        cursor: u64,
        limit: usize,
        mut decode: impl FnMut(u64, &[u64; W]) -> T,
    ) -> Tail<T> {
        let head = self.head();
        let oldest = head.saturating_sub(self.capacity() as u64);
        let lo = cursor.max(oldest).min(head);
        let hi = head.min(lo.saturating_add(limit as u64));
        let mut dropped = lo - cursor.min(lo);
        let mut items = Vec::with_capacity((hi - lo) as usize);
        for i in lo..hi {
            let (stamp, cells) = self.slot(i);
            let want = stable_stamp(i);
            let before = stamp.load(Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if before != want {
                dropped += 1; // overwritten (or mid-write) while we read
                continue;
            }
            let words: [u64; W] = std::array::from_fn(|k| cells[k].load(Ordering::Relaxed));
            fence(Ordering::SeqCst);
            if stamp.load(Ordering::Relaxed) != want {
                dropped += 1;
                continue;
            }
            items.push(decode(i, &words));
        }
        Tail { items, next: hi, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert_eq, proptest};

    /// Word 0 is the record's own sequence number, word 1 its complement:
    /// a torn or misplaced record cannot satisfy both.
    fn push_seq(ring: &SeqRing<2>, i: u64) {
        ring.push(&[i, !i]);
    }

    fn tail(ring: &SeqRing<2>, cursor: u64, limit: usize) -> Tail<u64> {
        ring.read_since(cursor, limit, |seq, w| {
            assert_eq!((w[0], w[1]), (seq, !seq), "payload must match the seq it claims");
            seq
        })
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_overwritten() {
        let ring = SeqRing::<2>::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            push_seq(&ring, i);
        }
        assert_eq!(ring.head(), 20);
        let t = tail(&ring, 0, usize::MAX);
        assert_eq!(t.dropped, 12);
        assert_eq!(t.next, 20);
        assert_eq!(t.items, (12..20).collect::<Vec<u64>>());
        // Cursor resume: nothing new yet.
        let again = tail(&ring, t.next, usize::MAX);
        assert_eq!(again, Tail { items: vec![], next: 20, dropped: 0 });
    }

    #[test]
    fn cursor_and_limit_page_through() {
        let ring = SeqRing::<2>::new(64);
        for i in 0..10 {
            push_seq(&ring, i);
        }
        let mut cursor = 0;
        let mut seen = Vec::new();
        loop {
            let t = tail(&ring, cursor, 3);
            if t.items.is_empty() {
                break;
            }
            seen.extend(t.items);
            cursor = t.next;
        }
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn short_record_leaves_the_slot_tail_untouched() {
        let ring = SeqRing::<3>::new(1);
        ring.push(&[1, 2, 3]);
        ring.push(&[9]);
        let t = ring.read_since(0, 8, |_, w| *w);
        assert_eq!((t.items, t.dropped), (vec![[9, 2, 3]], 1));
    }

    #[test]
    fn concurrent_tailing_never_tears() {
        const N: u64 = 20_000;
        let ring = SeqRing::<2>::new(16);
        let stop = AtomicBool::new(false);
        let started = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        started.wait();
                        let (mut cursor, mut seen) = (0, 0u64);
                        while !stop.load(Ordering::Relaxed) {
                            let t = tail(&ring, cursor, 64);
                            assert!(t.items.windows(2).all(|w| w[0] < w[1]), "out of order");
                            seen += t.items.len() as u64 + t.dropped;
                            cursor = t.next;
                        }
                        (seen, cursor)
                    })
                })
                .collect();
            started.wait();
            for i in 0..N {
                push_seq(&ring, i);
            }
            stop.store(true, Ordering::Relaxed);
            for r in readers {
                let (seen, cursor) = r.join().expect("reader panicked");
                assert!(cursor <= N);
                assert_eq!(seen, cursor, "items + dropped must cover the cursor range");
            }
        });
        assert_eq!(ring.head(), N);
    }

    proptest! {
        // Any push count / capacity / cursor / limit — cursors past the
        // head and `usize::MAX` limits included: the tail reports exactly
        // the still-held span, dropped covers the gap, payloads match seqs.
        #[test]
        fn prop_ring_tail_consistent(
            cap_pow in 0u32..10,
            pushes in 0u64..2_000,
            cursor in proptest::prop_oneof![0u64..4_000, u64::MAX - 2..=u64::MAX],
            limit in proptest::prop_oneof![0usize..3_000, usize::MAX - 2..=usize::MAX],
        ) {
            let cap = 1u64 << cap_pow;
            let ring = SeqRing::<2>::new(cap as usize);
            for i in 0..pushes {
                push_seq(&ring, i);
            }
            prop_assert_eq!(ring.head(), pushes);
            let t = tail(&ring, cursor, limit);
            let oldest = pushes.saturating_sub(cap);
            let lo = cursor.max(oldest).min(pushes);
            let hi = pushes.min(lo.saturating_add(limit as u64));
            prop_assert_eq!(t.next, hi);
            prop_assert_eq!(t.dropped, lo - cursor.min(lo));
            prop_assert_eq!(t.items, (lo..hi).collect::<Vec<u64>>());
        }
    }
}

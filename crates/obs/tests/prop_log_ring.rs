//! Property tests for the log ring's seqlock contract (ISSUE 10 satellite):
//! a reader tailing by cursor while the writer wraps must never observe a
//! torn record (message inconsistent with its seq) or an out-of-order /
//! duplicated sequence — lost records are only ever *counted*, in
//! `dropped`, and cursors stay monotone.

use proptest::prelude::*;
use sd_obs::{Level, LogRing};
use std::sync::Arc;

proptest! {
    /// Single-threaded wrap: for any capacity/writes/cursor/limit — cursors
    /// past the head and limits up to `usize::MAX` included — a tail
    /// returns exactly the still-resident span, in order, with the lost
    /// prefix counted.
    #[test]
    fn tail_is_exact_without_concurrency(
        cap in 3usize..9,            // ring capacity 8..256 after rounding
        writes in 0u64..700,
        cursor in prop_oneof![0u64..800, u64::MAX - 2..=u64::MAX],
        limit in prop_oneof![0usize..700, usize::MAX - 2..=usize::MAX],
    ) {
        let ring = LogRing::new(1 << cap);
        let capacity = ring.capacity() as u64;
        for i in 0..writes {
            ring.push(Level::Info, i, i, "t", &format!("m{i}"), &[]);
        }
        let tail = ring.read_since(cursor, limit);
        let oldest = writes.saturating_sub(capacity);
        let lo = cursor.max(oldest).min(writes);
        let hi = writes.min(lo.saturating_add(limit as u64));
        prop_assert_eq!(tail.dropped, lo - cursor.min(lo));
        prop_assert_eq!(tail.next, hi);
        prop_assert_eq!(tail.records.len() as u64, hi - lo);
        for (k, r) in tail.records.iter().enumerate() {
            prop_assert_eq!(r.seq, lo + k as u64);
            prop_assert_eq!(&r.message, &format!("m{}", r.seq));
            prop_assert_eq!(r.wall_micros, r.seq);
        }
    }

    /// Concurrent wrap: a writer lapping a small ring while a reader tails.
    /// Every returned record must be internally consistent and strictly
    /// ordered; records + dropped must account for the whole cursor span.
    #[test]
    fn concurrent_reader_never_sees_torn_or_out_of_order(
        cap in 3usize..6,
        writes in 100u64..1200,
        limit in 1usize..80,
    ) {
        let ring = Arc::new(LogRing::new(1 << cap));
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..writes {
                    ring.push(
                        Level::Debug,
                        i.wrapping_mul(31),
                        i,
                        "w",
                        &format!("payload {i}"),
                        &[("i", format!("{i}"))],
                    );
                }
            })
        };
        let mut cursor = 0u64;
        let mut accounted = 0u64;
        let mut last_seq: Option<u64> = None;
        while cursor < writes {
            let tail = ring.read_since(cursor, limit);
            prop_assert!(tail.next >= cursor, "cursor is monotone");
            accounted += tail.dropped + tail.records.len() as u64;
            for r in &tail.records {
                prop_assert_eq!(&r.message, &format!("payload {}", r.seq), "torn message");
                prop_assert_eq!(r.wall_micros, r.seq.wrapping_mul(31), "torn timestamp");
                prop_assert_eq!(r.virt_secs, r.seq, "torn virtual time");
                prop_assert_eq!(&r.fields[0].1, &format!("{}", r.seq), "torn field");
                if let Some(prev) = last_seq {
                    prop_assert!(r.seq > prev, "out-of-order: {} after {prev}", r.seq);
                }
                last_seq = Some(r.seq);
            }
            cursor = tail.next;
        }
        writer.join().unwrap();
        prop_assert_eq!(accounted, writes, "records + dropped cover the span");
    }
}

//! Property tests for the event queue: the determinism backbone.

use proptest::prelude::*;
use simkit::{EventQueue, SimTime};

proptest! {
    /// Popped events are sorted by time, with FIFO order among equal times.
    #[test]
    fn pops_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let drained = q.drain_sorted();
        for w in drained.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
            if w[0].time == w[1].time {
                prop_assert!(w[0].payload < w[1].payload, "FIFO among ties");
            }
        }
        prop_assert_eq!(drained.len(), times.len());
    }

    /// Interleaved push/pop maintains the heap invariant (next pop is the
    /// global minimum of the live set).
    #[test]
    fn interleaved_operations_keep_order(ops in prop::collection::vec((0u64..500, any::<bool>()), 1..300)) {
        let mut q = EventQueue::new();
        let mut reference: Vec<u64> = Vec::new();
        let mut last_popped = 0u64;
        for (t, is_pop) in ops {
            if is_pop {
                if let Some(ev) = q.pop() {
                    prop_assert!(ev.time.secs() >= last_popped || reference.is_empty());
                    let min = *reference.iter().min().unwrap();
                    prop_assert_eq!(ev.time.secs(), min);
                    let pos = reference.iter().position(|&x| x == min).unwrap();
                    reference.remove(pos);
                    last_popped = ev.time.secs();
                }
            } else {
                // Never schedule into the past relative to popped time.
                let t = t.max(last_popped);
                q.push(SimTime(t), 0u32);
                reference.push(t);
            }
        }
    }
}

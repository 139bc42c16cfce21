//! Property tests for the event queue: the determinism backbone.

use proptest::prelude::*;
use simkit::{DetRng, EventQueue, SimTime};
use std::collections::BTreeMap;

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

/// One step of a random stream against the queue and its model.
#[derive(Debug, Clone)]
enum Op {
    /// A push at or after every instant pushed so far: it sorts at or after
    /// the run's back, so it is appended to the run.
    PushLate { dt: u64 },
    /// A push at any instant up to the latest pushed: it usually sorts before
    /// the run's back and goes to the heap, often at an instant the run holds.
    PushAny { t: u64 },
    Pop,
    /// `pop_at` the head's instant, or one instant later (which must pop
    /// nothing).
    PopAt { at_head: bool },
    /// `snapshot` → `from_snapshot`, the entries shuffled first unless
    /// `shuffle` is 0.
    Restore { shuffle: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..3).prop_map(|dt| Op::PushLate { dt }),
        any::<u64>().prop_map(|t| Op::PushAny { t }),
        Just(Op::Pop),
        any::<bool>().prop_map(|at_head| Op::PopAt { at_head }),
        (0u64..4).prop_map(|shuffle| Op::Restore { shuffle }),
    ]
}

/// The reference: every live event by its `(time, seq)` key.
type Model = BTreeMap<(SimTime, u64), u32>;

fn check_heads(q: &EventQueue<u32>, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(q.len(), model.len());
    prop_assert_eq!(q.is_empty(), model.is_empty());
    prop_assert_eq!(q.peek_time(), model.keys().next().map(|k| k.0));
    Ok(())
}

fn push(q: &mut EventQueue<u32>, model: &mut Model, next_seq: &mut u64, t: u64, payload: u32) {
    q.push(SimTime(t), payload);
    model.insert((SimTime(t), *next_seq), payload);
    *next_seq += 1;
}

proptest! {
    /// The queue pops exactly what a `BTreeMap` keyed by `(time, seq)` pops,
    /// whichever half each event sits in: in-order and out-of-order pushes,
    /// equal instants in both halves, pops, `pop_at`, and checkpoint
    /// round trips (shuffled or not) in mid-stream.
    #[test]
    fn pops_exactly_the_order_of_a_time_seq_map(ops in prop::collection::vec(arb_op(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model = Model::new();
        let mut next_seq = 0u64;
        let mut latest = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let payload = i as u32;
            match op {
                Op::PushLate { dt } => {
                    latest += dt;
                    push(&mut q, &mut model, &mut next_seq, latest, payload);
                }
                Op::PushAny { t } => {
                    push(&mut q, &mut model, &mut next_seq, t % (latest + 1), payload);
                }
                Op::Pop => {
                    let got = q.pop().map(|e| (e.time, e.payload));
                    let want = model.pop_first().map(|((t, _), p)| (t, p));
                    prop_assert_eq!(got, want);
                }
                Op::PopAt { at_head } => {
                    let head = model.keys().next().map(|k| k.0);
                    let t = head.map_or(SimTime(latest), |h| {
                        if at_head { h } else { SimTime(h.secs() + 1) }
                    });
                    let got = q.pop_at(t).map(|e| (e.time, e.payload));
                    let want = if head == Some(t) {
                        model.pop_first().map(|((t, _), p)| (t, p))
                    } else {
                        None
                    };
                    prop_assert_eq!(got, want);
                }
                Op::Restore { shuffle } => {
                    let (mut entries, seq) = q.snapshot();
                    let keys: Vec<_> = entries.iter().map(|e| ((e.0, e.2), e.1)).collect();
                    let reference: Vec<_> = model.iter().map(|(&k, &p)| (k, p)).collect();
                    prop_assert_eq!(keys, reference, "snapshot is sorted by (time, seq)");
                    prop_assert_eq!(seq, next_seq);
                    if shuffle > 0 {
                        let mut rng = DetRng::new(shuffle ^ i as u64);
                        for j in (1..entries.len()).rev() {
                            entries.swap(j, rng.range_u64(0, j as u64) as usize);
                        }
                    }
                    q = EventQueue::from_snapshot(entries, seq);
                }
            }
            check_heads(&q, &model)?;
        }
        // Pushes after the last restore still take fresh sequence numbers.
        push(&mut q, &mut model, &mut next_seq, latest, u32::MAX);
        let drained: Vec<_> = q.drain_sorted().into_iter().map(|e| (e.time, e.payload)).collect();
        let reference: Vec<_> = model.into_iter().map(|((t, _), p)| (t, p)).collect();
        prop_assert_eq!(drained, reference);
    }
}

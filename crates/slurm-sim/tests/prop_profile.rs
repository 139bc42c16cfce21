//! Property tests for the availability profile: backfill correctness rests
//! on these invariants.

use proptest::prelude::*;
use simkit::SimTime;
use slurm_sim::{Profile, ReleaseMap};

proptest! {
    /// `earliest_start` returns an instant where the demanded nodes really
    /// are free for the whole duration, and no earlier step instant works.
    #[test]
    fn earliest_start_is_correct_and_minimal(
        releases in prop::collection::vec((1u64..1000, 1u32..4), 0..20),
        free_now in 0u32..8,
        nodes in 1u32..8,
        duration in 1u64..500,
    ) {
        let total: u32 = free_now + releases.iter().map(|&(_, c)| c).sum::<u32>();
        prop_assume!(total < 64);
        let mut rm = ReleaseMap::default();
        for &(t, c) in &releases {
            rm.retally(None, Some(SimTime(t)), c);
        }
        let p = Profile::build(SimTime(0), free_now, &rm);
        let t = p.earliest_start(nodes, duration, SimTime(0));
        if nodes <= total {
            prop_assert!(t != SimTime::MAX);
            prop_assert!(p.min_free_in(t, duration) >= nodes as i64, "feasible at t");
            // Minimality: no earlier candidate instant admits the job.
            for earlier in (0..t.secs()).step_by((t.secs() as usize / 16).max(1)) {
                prop_assert!(
                    p.min_free_in(SimTime(earlier), duration) < nodes as i64,
                    "earlier instant {earlier} would admit the job"
                );
            }
        } else {
            prop_assert_eq!(t, SimTime::MAX);
        }
    }

    /// Reserving at the found instant never drives the profile negative, and
    /// chains of reservations stay consistent (no double booking).
    #[test]
    fn chained_reservations_never_oversubscribe(
        jobs in prop::collection::vec((1u32..6, 1u64..300), 1..30),
        free in 4u32..10,
    ) {
        let rm = ReleaseMap::default();
        let mut p = Profile::build(SimTime(0), free, &rm);
        for (nodes, dur) in jobs {
            if nodes > free {
                continue;
            }
            let t = p.earliest_start(nodes, dur, SimTime(0));
            prop_assert!(t != SimTime::MAX);
            p.reserve(t, dur, nodes);
            prop_assert!(p.is_consistent(), "profile went negative");
        }
    }

    /// `free_at` is a right-continuous step function consistent with
    /// `min_free_in` on singleton windows.
    #[test]
    fn free_at_matches_min_free_single_second(
        releases in prop::collection::vec((1u64..100, 1u32..3), 0..10),
        probe in 0u64..120,
    ) {
        let mut rm = ReleaseMap::default();
        for &(t, c) in &releases {
            rm.retally(None, Some(SimTime(t)), c);
        }
        let p = Profile::build(SimTime(0), 2, &rm);
        prop_assert_eq!(p.free_at(SimTime(probe)), p.min_free_in(SimTime(probe), 1));
    }
}

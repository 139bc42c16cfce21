//! Property tests for the incrementally maintained availability cache
//! (DESIGN.md §9): it must be indistinguishable from a full rebuild. (The
//! linear-sweep vs. candidate-probe property lives in `reservation.rs`,
//! next to its test-only oracle.)

use cluster::NodeId;
use proptest::prelude::*;
use simkit::SimTime;
use slurm_sim::{Profile, ReleaseMap};

proptest! {
    /// A profile maintained purely through `patch_release`/`advance_to` is
    /// `PartialEq`-identical to `Profile::build` after every step of an
    /// arbitrary release-change sequence (the start/end/shrink/relocate
    /// traffic of a run reduces to exactly such sequences).
    #[test]
    fn patched_profile_equals_rebuild(
        ops in prop::collection::vec((0u32..16, 0u64..1000, 0u64..50), 1..50),
    ) {
        let nodes = 16u32;
        let mut rm = ReleaseMap::new(nodes);
        let mut cached = Profile::flat(SimTime::ZERO, nodes);
        let mut now = SimTime::ZERO;
        for &(node, when, dt) in &ops {
            now = now.after(dt); // time only moves forward
            let nid = NodeId(node);
            let old = rm.release_of(nid);
            // Mix of clearing (job end) and (re)setting (start/extend).
            let new = if when % 3 == 0 { None } else { Some(SimTime(when)) };
            if old != new {
                rm.set_release(nid, new);
                cached.patch_release(now, old, new);
            }
            cached.advance_to(now);
            let free_now = nodes - rm.busy_count();
            let fresh = Profile::build(now, free_now, &rm);
            prop_assert_eq!(&cached, &fresh, "diverged after op on {:?} at {:?}", nid, now);
        }
    }

    /// `reserve` (single-splice implementation) leaves the same step
    /// function as a naive subtract-over-window on a cloned profile, and
    /// `busy_count` matches the number of busy nodes.
    #[test]
    fn reserve_windows_compose_with_releases(
        releases in prop::collection::vec((1u64..500, 1u32..3), 0..12),
        resvs in prop::collection::vec((0u64..600, 1u64..200, 1u32..4), 1..12),
        probes in prop::collection::vec(0u64..900, 1..20),
    ) {
        let mut rm = ReleaseMap::new(64);
        let mut nid = 0u32;
        let mut busy = 0u32;
        for &(t, c) in &releases {
            for _ in 0..c {
                rm.set_release(NodeId(nid), Some(SimTime(t)));
                nid += 1;
                busy += 1;
            }
        }
        prop_assert_eq!(rm.busy_count(), busy);
        let mut p = Profile::build(SimTime(0), 8, &rm);
        // Model: free_at(t) after reservations == build's free minus the sum
        // of reservations whose window covers t.
        let base = p.clone();
        for &(s, d, n) in &resvs {
            p.reserve(SimTime(s), d, n);
        }
        for &t in &probes {
            let mut expect = base.free_at(SimTime(t));
            for &(s, d, n) in &resvs {
                let end = s + d.max(1);
                if t >= s && t < end {
                    expect -= n as i64;
                }
            }
            prop_assert_eq!(p.free_at(SimTime(t)), expect, "at t={t}");
        }
    }
}
